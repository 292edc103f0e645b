//! SAX words: compact symbol strings.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A SAX word: a fixed-length string of symbol indexes (`0..α`).
///
/// Stored as raw symbol indexes rather than letters so that MINDIST lookups
/// and comparisons avoid character arithmetic; [`fmt::Display`] renders the
/// usual `a..t` letters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SaxWord(Box<[u8]>);

impl SaxWord {
    /// Builds a word from raw symbol indexes.
    pub fn new(symbols: impl Into<Box<[u8]>>) -> Self {
        Self(symbols.into())
    }

    /// Parses a word from its letter form (`'a'` = symbol 0).
    ///
    /// Returns `None` when any character falls outside `a..=z`.
    pub fn from_letters(letters: &str) -> Option<Self> {
        let mut symbols = Vec::with_capacity(letters.len());
        for c in letters.chars() {
            if !c.is_ascii_lowercase() {
                return None;
            }
            symbols.push(c as u8 - b'a');
        }
        Some(Self(symbols.into_boxed_slice()))
    }

    /// The symbol indexes.
    pub fn symbols(&self) -> &[u8] {
        &self.0
    }

    /// Word length (the PAA size `w`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty word.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The letter rendering, e.g. `"aacb"`.
    pub fn to_letters(&self) -> String {
        self.0.iter().map(|&s| (b'a' + s) as char).collect()
    }

    /// Consumes the word, returning its symbol storage. Streaming callers
    /// pool these boxes to reuse the allocation for later words.
    pub fn into_bytes(self) -> Box<[u8]> {
        self.0
    }
}

impl fmt::Display for SaxWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &s in self.0.iter() {
            write!(f, "{}", (b'a' + s) as char)?;
        }
        Ok(())
    }
}

impl From<Vec<u8>> for SaxWord {
    fn from(v: Vec<u8>) -> Self {
        Self(v.into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_letters() {
        let w = SaxWord::from_letters("acbd").unwrap();
        assert_eq!(w.symbols(), &[0, 2, 1, 3]);
        assert_eq!(w.to_letters(), "acbd");
        assert_eq!(w.to_string(), "acbd");
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
    }

    #[test]
    fn rejects_non_letters() {
        assert!(SaxWord::from_letters("aB").is_none());
        assert!(SaxWord::from_letters("a1").is_none());
        assert!(SaxWord::from_letters("").is_some());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = SaxWord::from_letters("aab").unwrap();
        let b = SaxWord::from_letters("aac").unwrap();
        let c = SaxWord::from_letters("ab").unwrap();
        assert!(a < b);
        assert!(a < c); // shorter-prefix rule
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the test exists to show SaxWord works as a hash key; the set is lookup-only"
    )]
    fn hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SaxWord::from_letters("abc").unwrap());
        assert!(set.contains(&SaxWord::from_letters("abc").unwrap()));
        assert!(!set.contains(&SaxWord::from_letters("abd").unwrap()));
    }

    #[test]
    fn from_vec() {
        let w: SaxWord = vec![0u8, 1, 2].into();
        assert_eq!(w.to_letters(), "abc");
    }
}
