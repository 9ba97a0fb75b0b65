//! Civil date/time conversions for HTTP and log formats.
//!
//! Trace processing uses relative [`Timestamp`]s; wire formats need real
//! dates. This module converts Unix seconds to civil time (proleptic
//! Gregorian, UTC only) and formats/parses:
//!
//! * RFC 1123 HTTP-dates — `Sun, 06 Nov 1994 08:49:37 GMT`;
//! * Common Log Format dates — `06/Nov/1994:08:49:37 +0000`.
//!
//! The days↔civil algorithms are the standard Howard Hinnant constructions.

use crate::types::Timestamp;

/// Default Unix time corresponding to trace [`Timestamp::ZERO`]:
/// 1998-01-28 00:00:00 UTC — contemporaneous with the paper's logs.
pub const DEFAULT_TRACE_EPOCH_UNIX: i64 = 885_945_600;

/// Convert a trace timestamp to Unix seconds under `epoch_unix`.
pub fn unix_from_timestamp(t: Timestamp, epoch_unix: i64) -> i64 {
    epoch_unix + t.as_secs() as i64
}

/// Convert Unix seconds to a trace timestamp under `epoch_unix`
/// (saturating at zero for pre-epoch instants).
pub fn timestamp_from_unix(unix: i64, epoch_unix: i64) -> Timestamp {
    Timestamp::from_secs((unix - epoch_unix).max(0) as u64)
}

/// A broken-down UTC civil time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    pub year: i32,
    /// 1-based month.
    pub month: u32,
    /// 1-based day of month.
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
    pub second: u32,
}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date for days since 1970-01-01 (Hinnant's `civil_from_days`).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Break Unix seconds into civil UTC time.
pub fn civil_from_unix(unix: i64) -> Civil {
    let days = unix.div_euclid(86_400);
    let secs = unix.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    Civil {
        year,
        month,
        day,
        hour: (secs / 3600) as u32,
        minute: (secs / 60 % 60) as u32,
        second: (secs % 60) as u32,
    }
}

/// Unix seconds for a civil UTC time.
pub fn unix_from_civil(c: Civil) -> i64 {
    days_from_civil(c.year, c.month, c.day) * 86_400
        + i64::from(c.hour) * 3600
        + i64::from(c.minute) * 60
        + i64::from(c.second)
}

/// Day of week for Unix seconds, 0 = Sunday.
pub fn weekday_from_unix(unix: i64) -> u32 {
    // 1970-01-01 was a Thursday (4).
    ((unix.div_euclid(86_400) + 4).rem_euclid(7)) as u32
}

const DAY_NAMES: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn month_from_name(s: &str) -> Option<u32> {
    MONTH_NAMES
        .iter()
        .position(|m| m.eq_ignore_ascii_case(s))
        .map(|i| i as u32 + 1)
}

/// Unix seconds wrapped as a lazily-formatted RFC 1123 HTTP-date.
///
/// `Display` writes `Sun, 06 Nov 1994 08:49:37 GMT` directly into the
/// destination — `write!(buf, "{}", Rfc1123(unix))` formats an HTTP-date
/// into a reused buffer without the intermediate `String` that
/// [`format_rfc1123`] allocates, which keeps the proxy's cached-hit
/// response path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rfc1123(pub i64);

/// Byte length of an RFC 1123 HTTP-date with a four-digit year.
pub const RFC1123_LEN: usize = 29;

impl Rfc1123 {
    /// The date as its fixed 29 bytes, written digit by digit without
    /// `core::fmt`; `None` for a year outside 0..=9999, which has no
    /// fixed-width form ([`Display`](std::fmt::Display) still renders it).
    pub fn to_bytes(self) -> Option<[u8; RFC1123_LEN]> {
        let c = civil_from_unix(self.0);
        let year = u32::try_from(c.year).ok().filter(|y| *y <= 9999)?;
        let mut b = *b"Www, DD Mmm YYYY HH:MM:SS GMT";
        b[..3].copy_from_slice(DAY_NAMES[weekday_from_unix(self.0) as usize].as_bytes());
        let two = |b: &mut [u8; RFC1123_LEN], at: usize, v: u32| {
            b[at] = b'0' + (v / 10) as u8;
            b[at + 1] = b'0' + (v % 10) as u8;
        };
        two(&mut b, 5, c.day);
        b[8..11].copy_from_slice(MONTH_NAMES[(c.month - 1) as usize].as_bytes());
        two(&mut b, 12, year / 100);
        two(&mut b, 14, year % 100);
        two(&mut b, 17, c.hour);
        two(&mut b, 20, c.minute);
        two(&mut b, 23, c.second);
        Some(b)
    }

    /// Run `f` on the date as a `&str`, from a stack buffer when the date
    /// has its fixed-width form.
    pub fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> R {
        match self.to_bytes() {
            Some(b) => f(std::str::from_utf8(&b).expect("ASCII date")),
            None => f(&self.to_string()),
        }
    }

    /// Append the date to `out` (the fixed-width form when there is one).
    pub fn write_to(self, out: &mut Vec<u8>) {
        match self.to_bytes() {
            Some(b) => out.extend_from_slice(&b),
            None => out.extend_from_slice(self.to_string().as_bytes()),
        }
    }
}

impl std::fmt::Display for Rfc1123 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(b) = self.to_bytes() {
            return f.write_str(std::str::from_utf8(&b).expect("ASCII date"));
        }
        let c = civil_from_unix(self.0);
        write!(
            f,
            "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
            DAY_NAMES[weekday_from_unix(self.0) as usize],
            c.day,
            MONTH_NAMES[(c.month - 1) as usize],
            c.year,
            c.hour,
            c.minute,
            c.second
        )
    }
}

/// Format Unix seconds as an RFC 1123 HTTP-date:
/// `Sun, 06 Nov 1994 08:49:37 GMT`.
pub fn format_rfc1123(unix: i64) -> String {
    Rfc1123(unix).to_string()
}

/// Parse an RFC 1123 HTTP-date into Unix seconds. Returns `None` on any
/// syntactic deviation (we do not accept the obsolete RFC 850 or asctime
/// forms).
pub fn parse_rfc1123(s: &str) -> Option<i64> {
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let s = s.trim();
    let rest = s.split_once(", ").map(|(_, r)| r)?;
    let mut parts = rest.split_ascii_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let month = month_from_name(parts.next()?)?;
    let year: i32 = parts.next()?.parse().ok()?;
    let hms = parts.next()?;
    let tz = parts.next()?;
    if tz != "GMT" || parts.next().is_some() {
        return None;
    }
    let (h, m, sec) = parse_hms(hms)?;
    if !valid_civil(year, month, day, h, m, sec) {
        return None;
    }
    Some(unix_from_civil(Civil {
        year,
        month,
        day,
        hour: h,
        minute: m,
        second: sec,
    }))
}

/// Format Unix seconds as a CLF timestamp body:
/// `06/Nov/1994:08:49:37 +0000` (brackets added by the log writer).
pub fn format_clf(unix: i64) -> String {
    let c = civil_from_unix(unix);
    format!(
        "{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000",
        c.day,
        MONTH_NAMES[(c.month - 1) as usize],
        c.year,
        c.hour,
        c.minute,
        c.second
    )
}

/// Parse a CLF timestamp body (the part between `[` and `]`).
pub fn parse_clf(s: &str) -> Option<i64> {
    // "06/Nov/1994:08:49:37 +0000"
    let (datetime, tz) = s.trim().split_once(' ')?;
    let offset = parse_tz_offset(tz)?;
    let mut it = datetime.splitn(4, &['/', ':'][..]);
    let day: u32 = it.next()?.parse().ok()?;
    let month = month_from_name(it.next()?)?;
    let year: i32 = it.next()?.parse().ok()?;
    let (h, m, sec) = parse_hms(it.next()?)?;
    if !valid_civil(year, month, day, h, m, sec) {
        return None;
    }
    Some(
        unix_from_civil(Civil {
            year,
            month,
            day,
            hour: h,
            minute: m,
            second: sec,
        }) - offset,
    )
}

fn parse_hms(s: &str) -> Option<(u32, u32, u32)> {
    let mut it = s.split(':');
    let h: u32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let sec: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((h, m, sec))
}

fn parse_tz_offset(tz: &str) -> Option<i64> {
    if tz.len() != 5 {
        return None;
    }
    let sign = match &tz[..1] {
        "+" => 1,
        "-" => -1,
        _ => return None,
    };
    let h: i64 = tz[1..3].parse().ok()?;
    let m: i64 = tz[3..5].parse().ok()?;
    Some(sign * (h * 3600 + m * 60))
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn valid_civil(year: i32, month: u32, day: u32, h: u32, m: u32, s: u32) -> bool {
    (1..=12).contains(&month)
        && day >= 1
        && day <= days_in_month(year, month)
        && h < 24
        && m < 60
        && s < 61
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_round_trip_across_years() {
        for &unix in &[
            0i64,
            886_032_000, // 1998-01-28
            951_827_696, // leap year 2000
            1_700_000_000,
            -86_400, // 1969-12-31
        ] {
            let c = civil_from_unix(unix);
            assert_eq!(unix_from_civil(c), unix, "round trip for {unix}");
        }
    }

    #[test]
    fn known_dates() {
        // RFC 2616's example date.
        let c = civil_from_unix(784_111_777);
        assert_eq!((c.year, c.month, c.day), (1994, 11, 6));
        assert_eq!((c.hour, c.minute, c.second), (8, 49, 37));
        assert_eq!(weekday_from_unix(784_111_777), 0, "a Sunday");
        // The trace epoch is 1998-01-28, a Wednesday.
        let e = civil_from_unix(DEFAULT_TRACE_EPOCH_UNIX);
        assert_eq!((e.year, e.month, e.day), (1998, 1, 28));
        assert_eq!(weekday_from_unix(DEFAULT_TRACE_EPOCH_UNIX), 3);
    }

    #[test]
    fn rfc1123_format_matches_spec_example() {
        assert_eq!(format_rfc1123(784_111_777), "Sun, 06 Nov 1994 08:49:37 GMT");
    }

    #[test]
    fn rfc1123_fixed_writer_matches_fmt() {
        let reference = |unix: i64| {
            let c = civil_from_unix(unix);
            format!(
                "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
                DAY_NAMES[weekday_from_unix(unix) as usize],
                c.day,
                MONTH_NAMES[(c.month - 1) as usize],
                c.year,
                c.hour,
                c.minute,
                c.second
            )
        };
        let mut unix = -62_167_219_200; // 0000-01-01
        while unix < 253_402_300_800 {
            let mut out = Vec::new();
            Rfc1123(unix).write_to(&mut out);
            assert_eq!(String::from_utf8(out).unwrap(), reference(unix), "{unix}");
            unix += 86_400 * 37 + 3_671;
        }
        // Year 10000 has no fixed-width form; the fmt fallback renders it.
        assert_eq!(Rfc1123(253_402_300_800).to_bytes(), None);
        assert_eq!(
            Rfc1123(253_402_300_800).to_string(),
            reference(253_402_300_800)
        );
    }

    #[test]
    fn rfc1123_round_trip() {
        for &unix in &[0i64, 784_111_777, DEFAULT_TRACE_EPOCH_UNIX, 1_234_567_890] {
            assert_eq!(parse_rfc1123(&format_rfc1123(unix)), Some(unix));
        }
    }

    #[test]
    fn rfc1123_rejects_malformed() {
        assert_eq!(parse_rfc1123("Sun 06 Nov 1994 08:49:37 GMT"), None);
        assert_eq!(parse_rfc1123("Sun, 06 Xxx 1994 08:49:37 GMT"), None);
        assert_eq!(parse_rfc1123("Sun, 06 Nov 1994 08:49:37 PST"), None);
        assert_eq!(parse_rfc1123("Sun, 31 Feb 1994 08:49:37 GMT"), None);
        assert_eq!(parse_rfc1123(""), None);
    }

    #[test]
    fn clf_round_trip_utc() {
        for &unix in &[0i64, 784_111_777, DEFAULT_TRACE_EPOCH_UNIX] {
            assert_eq!(parse_clf(&format_clf(unix)), Some(unix));
        }
        assert_eq!(format_clf(784_111_777), "06/Nov/1994:08:49:37 +0000");
    }

    #[test]
    fn clf_parses_nonzero_offsets() {
        // 08:49:37 at -0500 is 13:49:37 UTC.
        let east = parse_clf("06/Nov/1994:08:49:37 -0500").unwrap();
        let utc = parse_clf("06/Nov/1994:13:49:37 +0000").unwrap();
        assert_eq!(east, utc);
        assert_eq!(parse_clf("06/Nov/1994:08:49:37 0500"), None);
    }

    #[test]
    fn timestamp_epoch_conversions() {
        let t = Timestamp::from_secs(100);
        let unix = unix_from_timestamp(t, DEFAULT_TRACE_EPOCH_UNIX);
        assert_eq!(unix, DEFAULT_TRACE_EPOCH_UNIX + 100);
        assert_eq!(timestamp_from_unix(unix, DEFAULT_TRACE_EPOCH_UNIX), t);
        // Pre-epoch saturates to zero.
        assert_eq!(
            timestamp_from_unix(DEFAULT_TRACE_EPOCH_UNIX - 5, DEFAULT_TRACE_EPOCH_UNIX),
            Timestamp::ZERO
        );
    }

    #[test]
    fn leap_february() {
        assert!(valid_civil(2000, 2, 29, 0, 0, 0));
        assert!(!valid_civil(1900, 2, 29, 0, 0, 0));
        assert!(valid_civil(1996, 2, 29, 0, 0, 0));
    }
}
