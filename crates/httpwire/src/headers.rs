//! A case-insensitive, order-preserving header map.

use std::fmt;

/// HTTP header collection. Lookup is case-insensitive; insertion order is
/// preserved on the wire. Multiple headers with the same name are kept.
///
/// A map can be recycled across messages on a persistent connection:
/// [`reset`](Self::reset) keeps the `(String, String)` pairs (and their
/// capacity) in a spare pool, and [`try_insert_recycled`]
/// (Self::try_insert_recycled) refills them without allocating.
#[derive(Default)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
    /// Cleared pairs kept for reuse; never observable (not compared,
    /// cloned, or iterated).
    spare: Vec<(String, String)>,
}

/// Is `name` a valid RFC 7230 header field name (token)?
pub fn valid_header_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| {
            b.is_ascii_alphanumeric()
                || matches!(
                    b,
                    b'!' | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'+'
                        | b'-'
                        | b'.'
                        | b'^'
                        | b'_'
                        | b'`'
                        | b'|'
                        | b'~'
                )
        })
}

/// Is `value` a valid header field value (no CR/LF/NUL)?
pub fn valid_header_value(value: &str) -> bool {
    value.bytes().all(|b| b != b'\r' && b != b'\n' && b != 0)
}

impl HeaderMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header. Panics on syntactically invalid names or values —
    /// in release builds too, because a CR/LF smuggled into a value here
    /// would otherwise be written to the wire verbatim and split the
    /// header (or trailer) line into an injected one. Use
    /// [`try_insert`](Self::try_insert) for untrusted input.
    pub fn insert(&mut self, name: &str, value: &str) {
        assert!(valid_header_name(name), "invalid header name {name:?}");
        assert!(
            valid_header_value(value),
            "invalid value for header {name:?}"
        );
        self.entries.push((name.to_owned(), value.to_owned()));
    }

    /// Append a header the caller already owns — no `to_owned` copies.
    /// Same validation (and panic) contract as [`insert`](Self::insert).
    pub fn insert_owned(&mut self, name: String, value: String) {
        assert!(valid_header_name(&name), "invalid header name {name:?}");
        assert!(
            valid_header_value(&value),
            "invalid value for header {name:?}"
        );
        self.entries.push((name, value));
    }

    /// Append after validating.
    pub fn try_insert(&mut self, name: &str, value: &str) -> Result<(), InvalidHeader> {
        if !valid_header_name(name) {
            return Err(InvalidHeader::Name(name.to_owned()));
        }
        if !valid_header_value(value) {
            return Err(InvalidHeader::Value(name.to_owned()));
        }
        self.entries
            .push((name.to_owned(), value.trim().to_owned()));
        Ok(())
    }

    /// [`try_insert`](Self::try_insert), but the owned strings come from
    /// the spare pool when one is available: after the first few messages
    /// on a connection a recycled map inserts without heap allocation.
    /// Value whitespace is trimmed, matching `try_insert`.
    pub fn try_insert_recycled(&mut self, name: &str, value: &str) -> Result<(), InvalidHeader> {
        if !valid_header_name(name) {
            return Err(InvalidHeader::Name(name.to_owned()));
        }
        if !valid_header_value(value) {
            return Err(InvalidHeader::Value(name.to_owned()));
        }
        let (mut n, mut v) = self.spare.pop().unwrap_or_default();
        n.clear();
        n.push_str(name);
        v.clear();
        v.push_str(value.trim());
        self.entries.push((n, v));
        Ok(())
    }

    /// [`insert`](Self::insert) (same validation and panic contract, no
    /// trimming), but the owned strings come from the spare pool when one
    /// is available, as in [`try_insert_recycled`](Self::try_insert_recycled):
    /// a server rebuilding its responses in one recycled map inserts
    /// without heap allocation.
    pub fn insert_recycled(&mut self, name: &str, value: &str) {
        assert!(valid_header_name(name), "invalid header name {name:?}");
        assert!(
            valid_header_value(value),
            "invalid value for header {name:?}"
        );
        let (mut n, mut v) = self.spare.pop().unwrap_or_default();
        n.clear();
        n.push_str(name);
        v.clear();
        v.push_str(value);
        self.entries.push((n, v));
    }

    /// Clear the map, keeping the entry strings (and their capacity) for
    /// reuse by [`try_insert_recycled`](Self::try_insert_recycled).
    pub fn reset(&mut self) {
        self.spare.append(&mut self.entries);
    }

    /// Replace all occurrences of `name` with a single value.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remove(name);
        self.insert(name, value);
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Remove all occurrences; returns whether any existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Does a comma-separated list header contain `token`
    /// (case-insensitive)? E.g. `Connection: keep-alive, TE`.
    pub fn list_contains(&self, name: &str, token: &str) -> bool {
        self.get_all(name).any(|v| {
            v.split(',')
                .any(|part| part.trim().eq_ignore_ascii_case(token))
        })
    }
}

// The spare pool is an invisible implementation detail: equality,
// cloning, and debug output consider only the live entries.

impl Clone for HeaderMap {
    fn clone(&self) -> Self {
        HeaderMap {
            entries: self.entries.clone(),
            spare: Vec::new(),
        }
    }
}

impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for HeaderMap {}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeaderMap")
            .field("entries", &self.entries)
            .finish()
    }
}

/// Header validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidHeader {
    Name(String),
    Value(String),
}

impl fmt::Display for InvalidHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidHeader::Name(n) => write!(f, "invalid header name {n:?}"),
            InvalidHeader::Value(n) => write!(f, "invalid value for header {n:?}"),
        }
    }
}

impl std::error::Error for InvalidHeader {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("Content-Length"));
    }

    #[test]
    fn multi_value_preserved_in_order() {
        let mut h = HeaderMap::new();
        h.insert("Via", "proxy-a");
        h.insert("Via", "proxy-b");
        let all: Vec<&str> = h.get_all("via").collect();
        assert_eq!(all, vec!["proxy-a", "proxy-b"]);
        assert_eq!(h.get("Via"), Some("proxy-a"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn set_replaces_all() {
        let mut h = HeaderMap::new();
        h.insert("X", "1");
        h.insert("X", "2");
        h.set("x", "3");
        assert_eq!(h.get_all("X").count(), 1);
        assert_eq!(h.get("X"), Some("3"));
    }

    #[test]
    fn remove_reports_presence() {
        let mut h = HeaderMap::new();
        h.insert("A", "1");
        assert!(h.remove("a"));
        assert!(!h.remove("a"));
        assert!(h.is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(valid_header_name("Piggy-filter"));
        assert!(valid_header_name("TE"));
        assert!(!valid_header_name(""));
        assert!(!valid_header_name("Bad Header"));
        assert!(!valid_header_name("Bad:Header"));
        assert!(valid_header_value("maxpiggy=10; rpv=\"3,4\""));
        assert!(!valid_header_value("evil\r\nInjected: yes"));
    }

    /// `insert` must reject CR/LF values in release builds too: a
    /// `debug_assert!` alone let `evil\r\nInjected: yes` reach the wire
    /// verbatim, splitting the header line. Both entry points are probed
    /// (catch_unwind rather than `#[should_panic]` so one test covers
    /// every vector and runs identically under `--release`).
    #[test]
    fn insert_rejects_crlf_in_release_builds() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let vectors: &[(&str, &str)] = &[
            ("X-Evil", "ok\r\nInjected: yes"),
            ("X-Evil", "ok\rInjected: yes"),
            ("X-Evil", "ok\nInjected: yes"),
            ("X-Evil", "nul\0byte"),
            ("Bad Name", "v"),
            ("Bad:Name", "v"),
            ("", "v"),
        ];
        for &(name, value) in vectors {
            let mut h = HeaderMap::new();
            let r = catch_unwind(AssertUnwindSafe(|| h.insert(name, value)));
            assert!(r.is_err(), "insert({name:?}, {value:?}) must panic");
            assert!(h.is_empty(), "nothing may be appended on rejection");
            let mut h = HeaderMap::new();
            assert!(h.try_insert(name, value).is_err());
            let r = catch_unwind(AssertUnwindSafe(|| h.set(name, value)));
            assert!(r.is_err(), "set({name:?}, {value:?}) must panic");
        }
    }

    #[test]
    fn try_insert_rejects_and_trims() {
        let mut h = HeaderMap::new();
        assert!(h.try_insert("Bad Name", "x").is_err());
        assert!(h.try_insert("Good", "bad\nvalue").is_err());
        h.try_insert("Good", "  padded  ").unwrap();
        assert_eq!(h.get("good"), Some("padded"));
    }

    #[test]
    fn insert_owned_matches_insert() {
        let mut a = HeaderMap::new();
        a.insert("X-Cache", "HIT");
        let mut b = HeaderMap::new();
        b.insert_owned("X-Cache".to_owned(), "HIT".to_owned());
        assert_eq!(a, b);
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut h = HeaderMap::new();
        assert!(catch_unwind(AssertUnwindSafe(|| {
            h.insert_owned("X".to_owned(), "bad\r\nvalue".to_owned())
        }))
        .is_err());
        assert!(h.is_empty());
    }

    /// Recycled inserts behave exactly like `try_insert` (validation,
    /// trimming), and reset + refill reuses the string storage.
    #[test]
    fn reset_recycles_entry_strings() {
        let mut h = HeaderMap::new();
        h.try_insert_recycled("Host", "  example.com  ").unwrap();
        assert_eq!(h.get("host"), Some("example.com"));
        let ptr_before = h.get("host").unwrap().as_ptr();
        h.reset();
        assert!(h.is_empty());
        h.try_insert_recycled("Host", "example.org").unwrap();
        assert_eq!(h.get("host"), Some("example.org"));
        // Same String allocation, refilled in place.
        assert_eq!(h.get("host").unwrap().as_ptr(), ptr_before);
        // Validation still rejects.
        assert!(h.try_insert_recycled("Bad Name", "x").is_err());
        assert!(h.try_insert_recycled("Good", "bad\nvalue").is_err());
        // The spare pool never leaks into equality or clones.
        let mut plain = HeaderMap::new();
        plain.insert("Host", "example.org");
        assert_eq!(h, plain);
        let cloned = h.clone();
        assert_eq!(cloned, plain);
    }

    #[test]
    fn list_contains_tokens() {
        let mut h = HeaderMap::new();
        h.insert("Connection", "keep-alive, TE");
        assert!(h.list_contains("connection", "te"));
        assert!(h.list_contains("Connection", "Keep-Alive"));
        assert!(!h.list_contains("Connection", "close"));
        h.insert("TE", "chunked");
        assert!(h.list_contains("TE", "chunked"));
    }
}
