//! Text encoding of the `P-volume` trailer header (paper Section 2.3).
//!
//! The piggyback rides in the trailer of a chunked HTTP/1.1 response. The
//! value carries the volume id and one clause per element:
//!
//! ```text
//! P-volume: 7; "/a/b.html" 887725423 5243, "/a/c.gif" 887725001 10230
//! ```
//!
//! i.e. `volume-id ';' element (',' element)*` where each element is
//! `quoted-path SP last-modified-epoch-seconds SP size-bytes`. Paths are
//! server-relative (the paper omits "the redundant server name portion").

use crate::element::{PiggybackElement, PiggybackMessage};
use crate::table::ResourceTable;
use crate::types::{Timestamp, VolumeId};
use std::fmt;

/// Name of the trailer header carrying the piggyback.
pub const P_VOLUME_HEADER: &str = "P-volume";

/// A decoded piggyback element, with its path still textual (the proxy
/// interns it into its own id space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireElement {
    pub path: String,
    pub last_modified: Timestamp,
    pub size: u64,
}

/// A decoded `P-volume` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePiggyback {
    pub volume: VolumeId,
    pub elements: Vec<WireElement>,
}

/// Errors decoding a `P-volume` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Missing the `volume-id ';'` prefix.
    MissingVolume,
    /// Volume id not a number.
    BadVolume(String),
    /// An element clause did not match `"path" lm size`.
    BadElement(String),
    /// A resource id in the message is unknown to the resource table
    /// (encoding side).
    UnknownResource,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::MissingVolume => write!(f, "P-volume value missing volume id"),
            WireError::BadVolume(s) => write!(f, "bad volume id: {s:?}"),
            WireError::BadElement(s) => write!(f, "bad piggyback element: {s:?}"),
            WireError::UnknownResource => write!(f, "piggyback references unknown resource"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode a piggyback message as a `P-volume` header value, resolving
/// resource ids to paths via `table`.
pub fn encode_p_volume(msg: &PiggybackMessage, table: &ResourceTable) -> Result<String, WireError> {
    let mut out = String::with_capacity(16 + msg.elements.len() * 64);
    encode_p_volume_into(msg, table, &mut out)?;
    Ok(out)
}

/// Encode into a caller-provided buffer (appended, not cleared), so hot
/// paths can reuse one allocation across requests. On error the buffer may
/// hold a partial encoding; callers should truncate back to their mark.
pub fn encode_p_volume_into(
    msg: &PiggybackMessage,
    table: &ResourceTable,
    out: &mut String,
) -> Result<(), WireError> {
    push_decimal(out, u64::from(msg.volume.0));
    out.push(';');
    for (i, e) in msg.elements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let path = table.path(e.resource).ok_or(WireError::UnknownResource)?;
        out.push_str(" \"");
        out.push_str(path);
        out.push_str("\" ");
        push_decimal(out, e.last_modified.as_secs());
        out.push(' ');
        push_decimal(out, e.size);
    }
    Ok(())
}

/// Append `n` in decimal without going through `core::fmt`.
pub(crate) fn push_decimal(out: &mut String, n: u64) {
    let mut digits = [0u8; 20];
    out.push_str(decimal(n, &mut digits));
}

/// `n` in decimal, written into the end of `buf`.
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
}

/// Decode a `P-volume` header value.
pub fn decode_p_volume(value: &str) -> Result<WirePiggyback, WireError> {
    let (vol_str, rest) = value.split_once(';').ok_or(WireError::MissingVolume)?;
    let volume: u32 = vol_str
        .trim()
        .parse()
        .map_err(|_| WireError::BadVolume(vol_str.trim().to_owned()))?;
    let mut elements = Vec::new();
    let rest = rest.trim();
    if !rest.is_empty() {
        for clause in rest.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            elements.push(parse_element(clause)?);
        }
    }
    Ok(WirePiggyback {
        volume: VolumeId(volume),
        elements,
    })
}

fn parse_element(clause: &str) -> Result<WireElement, WireError> {
    let bad = || WireError::BadElement(clause.to_owned());
    let clause = clause.trim();
    if !clause.starts_with('"') {
        return Err(bad());
    }
    let close = clause[1..].find('"').ok_or_else(bad)? + 1;
    let path = clause[1..close].to_owned();
    let mut nums = clause[close + 1..].split_whitespace();
    let lm: u64 = nums.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let size: u64 = nums.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if nums.next().is_some() {
        return Err(bad());
    }
    Ok(WireElement {
        path,
        last_modified: Timestamp::from_secs(lm),
        size,
    })
}

/// Convert a decoded wire piggyback back into an in-memory message using
/// the *receiver's* resource table (interning unknown paths).
pub fn intern_wire_piggyback(wire: &WirePiggyback, table: &mut ResourceTable) -> PiggybackMessage {
    let elements = wire
        .elements
        .iter()
        .map(|e| {
            let id = table.register_path(&e.path, e.size, e.last_modified);
            PiggybackElement {
                resource: id,
                size: e.size,
                last_modified: e.last_modified,
            }
        })
        .collect();
    PiggybackMessage {
        volume: wire.volume,
        elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ResourceId;

    fn sample_table() -> (ResourceTable, ResourceId, ResourceId) {
        let mut t = ResourceTable::new();
        let a = t.register_path("/a/b.html", 5243, Timestamp::from_secs(887725423));
        let b = t.register_path("/a/c.gif", 10230, Timestamp::from_secs(887725001));
        (t, a, b)
    }

    #[test]
    fn encode_matches_documented_shape() {
        let (t, a, b) = sample_table();
        let msg = PiggybackMessage {
            volume: VolumeId(7),
            elements: vec![
                PiggybackElement {
                    resource: a,
                    size: 5243,
                    last_modified: Timestamp::from_secs(887725423),
                },
                PiggybackElement {
                    resource: b,
                    size: 10230,
                    last_modified: Timestamp::from_secs(887725001),
                },
            ],
        };
        let s = encode_p_volume(&msg, &t).unwrap();
        assert_eq!(
            s,
            "7; \"/a/b.html\" 887725423 5243, \"/a/c.gif\" 887725001 10230"
        );
    }

    #[test]
    fn round_trip_through_receiver_table() {
        let (t, a, _) = sample_table();
        let msg = PiggybackMessage {
            volume: VolumeId(3),
            elements: vec![PiggybackElement {
                resource: a,
                size: 5243,
                last_modified: Timestamp::from_secs(887725423),
            }],
        };
        let s = encode_p_volume(&msg, &t).unwrap();
        let wire = decode_p_volume(&s).unwrap();
        assert_eq!(wire.volume, VolumeId(3));
        assert_eq!(wire.elements[0].path, "/a/b.html");
        assert_eq!(wire.elements[0].size, 5243);

        // Receiver with its own id space.
        let mut proxy_table = ResourceTable::new();
        proxy_table.register_path("/something-else", 1, Timestamp::ZERO);
        let interned = intern_wire_piggyback(&wire, &mut proxy_table);
        assert_eq!(interned.volume, VolumeId(3));
        let rid = interned.elements[0].resource;
        assert_eq!(proxy_table.path(rid), Some("/a/b.html"));
        assert_eq!(proxy_table.meta(rid).unwrap().size, 5243);
    }

    #[test]
    fn empty_piggyback_round_trips() {
        let t = ResourceTable::new();
        let msg = PiggybackMessage::new(VolumeId(9));
        let s = encode_p_volume(&msg, &t).unwrap();
        assert_eq!(s, "9;");
        let wire = decode_p_volume(&s).unwrap();
        assert!(wire.elements.is_empty());
        assert_eq!(wire.volume, VolumeId(9));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(decode_p_volume("novolume"), Err(WireError::MissingVolume));
        assert!(matches!(
            decode_p_volume("abc; \"/x\" 1 2"),
            Err(WireError::BadVolume(_))
        ));
        assert!(matches!(
            decode_p_volume("1; /x 1 2"),
            Err(WireError::BadElement(_))
        ));
        assert!(matches!(
            decode_p_volume("1; \"/x\" 1"),
            Err(WireError::BadElement(_))
        ));
        assert!(matches!(
            decode_p_volume("1; \"/x\" 1 2 3"),
            Err(WireError::BadElement(_))
        ));
        assert!(matches!(
            decode_p_volume("1; \"/x\" one 2"),
            Err(WireError::BadElement(_))
        ));
    }

    #[test]
    fn encode_unknown_resource_fails() {
        let t = ResourceTable::new();
        let msg = PiggybackMessage {
            volume: VolumeId(1),
            elements: vec![PiggybackElement {
                resource: ResourceId(42),
                size: 1,
                last_modified: Timestamp::ZERO,
            }],
        };
        assert_eq!(encode_p_volume(&msg, &t), Err(WireError::UnknownResource));
    }
}
