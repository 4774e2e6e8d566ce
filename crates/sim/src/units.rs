//! Byte and bandwidth units.
//!
//! Sizes are always `u64` bytes and bandwidths `f64` bytes/second across
//! the workspace; these constants and formatters keep call sites readable
//! (`16 * MIB`, `fmt_bytes(len)`).

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1 << 40;

/// Formats a byte count with a binary unit suffix, e.g. `"16.0 MiB"`.
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= TIB {
        format!("{:.1} TiB", b / TIB as f64)
    } else if bytes >= GIB {
        format!("{:.1} GiB", b / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", b / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", b / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a bandwidth in the units the paper reports (MB/s of 2^20
/// bytes), e.g. `"1631.9 MB/s"`.
#[must_use]
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    format!("{:.1} MB/s", bytes_per_sec / MIB as f64)
}

/// Integer ceiling division; used everywhere round counts are computed.
#[must_use]
pub fn div_ceil(num: u64, den: u64) -> u64 {
    assert!(den > 0, "division by zero in div_ceil({num}, 0)");
    num.div_euclid(den) + u64::from(num.rem_euclid(den) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_scale() {
        assert_eq!(KIB * KIB, MIB);
        assert_eq!(MIB * KIB, GIB);
        assert_eq!(GIB * KIB, TIB);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2 * KIB), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * MIB + MIB / 2), "3.5 MiB");
        assert_eq!(fmt_bytes(GIB), "1.0 GiB");
        assert_eq!(fmt_bytes(TIB), "1.0 TiB");
    }

    #[test]
    fn bandwidth_formatting_matches_paper_units() {
        assert_eq!(fmt_bandwidth(1631.91 * MIB as f64), "1631.9 MB/s");
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
        assert_eq!(div_ceil(u64::MAX, 1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_rejects_zero_denominator() {
        let _ = div_ceil(1, 0);
    }
}
