//! Subsequence extraction (paper §2).

use crate::error::{Error, Result};

/// Checked subsequence extraction `data[start..start+len]`.
///
/// # Errors
/// [`Error::WindowOutOfBounds`] when the range does not fit.
pub fn subsequence(data: &[f64], start: usize, len: usize) -> Result<&[f64]> {
    let end = start.checked_add(len).ok_or(Error::WindowOutOfBounds {
        start,
        len,
        series_len: data.len(),
    })?;
    if end > data.len() {
        return Err(Error::WindowOutOfBounds {
            start,
            len,
            series_len: data.len(),
        });
    }
    Ok(&data[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsequence_checked() {
        let data = [0.0, 1.0, 2.0];
        assert_eq!(subsequence(&data, 1, 2).unwrap(), &[1.0, 2.0]);
        assert!(subsequence(&data, 2, 2).is_err());
        assert!(subsequence(&data, usize::MAX, 2).is_err()); // overflow-safe
    }
}
