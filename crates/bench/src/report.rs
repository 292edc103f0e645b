//! Shared helpers for the table/figure report binaries.

/// Formats a large count with thousands separators, in the paper's style
/// (`271'442'101`).
pub fn thousands(n: u128) -> String {
    let digits = n.to_string();
    let len = digits.len();
    let mut out = String::with_capacity(len + len / 3);
    for (i, c) in digits.chars().enumerate() {
        if i != 0 && (len - i).is_multiple_of(3) {
            out.push('\'');
        }
        out.push(c);
    }
    out
}

/// Percentage reduction from `from` to `to` (the Table 1 "reduction in
/// distance calls" column).
pub fn reduction_pct(from: u128, to: u128) -> f64 {
    if from == 0 {
        return 0.0;
    }
    100.0 * (1.0 - (to as f64 / from as f64))
}

/// A horizontal rule sized to a table width.
pub fn hr(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1'000");
        assert_eq!(thousands(11_354), "11'354");
        assert_eq!(thousands(271_442_101), "271'442'101");
        assert_eq!(thousands(1_130_000_000), "1'130'000'000");
    }

    #[test]
    fn reduction() {
        assert!((reduction_pct(1000, 100) - 90.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0, 10), 0.0);
        assert!((reduction_pct(879_067, 112_405) - 87.2).abs() < 0.1);
    }

    #[test]
    fn rule() {
        assert_eq!(hr(3), "---");
    }
}
