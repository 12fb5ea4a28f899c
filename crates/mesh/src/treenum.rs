use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::MeshError;

/// A MeSH tree number: a dotted path identifying one position in the concept
/// hierarchy, e.g. `C04.557.337` (Neoplasms → Cysts → ...).
///
/// The first segment names a top-level category (a letter followed by
/// digits, like `A01` or `C04`); every further segment is a numeric run.
/// A descriptor closer to the root has a tree number that is a proper
/// *prefix* (segment-wise) of all its descendants' tree numbers — this is
/// the property BioNav exploits to attach query results to the hierarchy in
/// one pass.
///
/// Tree numbers order lexicographically by segment, which matches the order
/// MeSH browsers display siblings in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TreeNumber {
    raw: String,
}

impl TreeNumber {
    /// Parses a tree number, validating the MeSH dotted syntax.
    ///
    /// Accepted grammar: `SEG ("." SEG)*` where each `SEG` is a non-empty
    /// run of ASCII alphanumerics. MeSH itself uses `L\d\d` for the first
    /// segment and 3-digit runs afterwards, but the looser grammar also
    /// accepts synthetic hierarchies and future MeSH revisions.
    pub fn parse(input: &str) -> Result<Self, MeshError> {
        if input.is_empty() {
            return Err(MeshError::InvalidTreeNumber {
                input: input.to_string(),
                reason: "empty string",
            });
        }
        for segment in input.split('.') {
            if segment.is_empty() {
                return Err(MeshError::InvalidTreeNumber {
                    input: input.to_string(),
                    reason: "empty segment (consecutive or trailing dots)",
                });
            }
            if !segment.bytes().all(|b| b.is_ascii_alphanumeric()) {
                return Err(MeshError::InvalidTreeNumber {
                    input: input.to_string(),
                    reason: "segments must be ASCII alphanumeric",
                });
            }
        }
        Ok(TreeNumber {
            raw: input.to_string(),
        })
    }

    /// The raw dotted string.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Iterates over the dot-separated segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.raw.split('.')
    }

    /// Number of segments; the root category `A01` has depth 1.
    pub fn depth(&self) -> usize {
        self.raw.as_bytes().iter().filter(|&&b| b == b'.').count() + 1
    }

    /// The tree number one level up, or `None` for a top-level category.
    pub fn parent(&self) -> Option<TreeNumber> {
        self.raw.rfind('.').map(|idx| TreeNumber {
            raw: self.raw[..idx].to_string(),
        })
    }

    /// Creates the child position obtained by appending `segment`.
    ///
    /// # Panics
    /// Panics if `segment` is empty or non-alphanumeric; callers construct
    /// segments programmatically so a malformed one is a logic error.
    pub fn child(&self, segment: &str) -> TreeNumber {
        assert!(
            !segment.is_empty() && segment.bytes().all(|b| b.is_ascii_alphanumeric()),
            "invalid tree-number segment {segment:?}"
        );
        TreeNumber {
            raw: format!("{}.{segment}", self.raw),
        }
    }

    /// Whether `self` is a *proper* ancestor position of `other`.
    pub fn is_ancestor_of(&self, other: &TreeNumber) -> bool {
        other.raw.len() > self.raw.len()
            && other.raw.starts_with(&self.raw)
            && other.raw.as_bytes()[self.raw.len()] == b'.'
    }

    /// Whether `self` equals `other` or is an ancestor position of it.
    pub fn is_ancestor_or_self(&self, other: &TreeNumber) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// The top-level category segment, e.g. `C04` for `C04.557.337`.
    pub fn category(&self) -> &str {
        #[expect(
            clippy::expect_used,
            reason = "split() always yields at least one piece, and parse() rejected empty raw strings"
        )]
        self.raw
            .split('.')
            .next()
            .expect("tree numbers have at least one segment")
    }
}

impl fmt::Display for TreeNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl FromStr for TreeNumber {
    type Err = MeshError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TreeNumber::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_mesh_numbers() {
        for raw in ["A01", "C04.557.337", "G06.535.166.765", "D12.776.641"] {
            let tn = TreeNumber::parse(raw).unwrap();
            assert_eq!(tn.as_str(), raw);
        }
    }

    #[test]
    fn rejects_malformed_numbers() {
        for raw in ["", ".", "A01.", ".A01", "A01..557", "A01.5 57", "A01.5-7"] {
            assert!(
                TreeNumber::parse(raw).is_err(),
                "{raw:?} should be rejected"
            );
        }
    }

    #[test]
    fn depth_counts_segments() {
        assert_eq!(TreeNumber::parse("A01").unwrap().depth(), 1);
        assert_eq!(TreeNumber::parse("C04.557.337").unwrap().depth(), 3);
    }

    #[test]
    fn parent_strips_last_segment() {
        let tn = TreeNumber::parse("C04.557.337").unwrap();
        let parent = tn.parent().unwrap();
        assert_eq!(parent.as_str(), "C04.557");
        assert_eq!(parent.parent().unwrap().as_str(), "C04");
        assert_eq!(parent.parent().unwrap().parent(), None);
    }

    #[test]
    fn child_appends_segment() {
        let tn = TreeNumber::parse("C04").unwrap();
        assert_eq!(tn.child("557").as_str(), "C04.557");
    }

    #[test]
    #[should_panic(expected = "invalid tree-number segment")]
    fn child_rejects_bad_segment() {
        TreeNumber::parse("C04").unwrap().child("5.7");
    }

    #[test]
    fn ancestry_is_segment_wise_not_string_prefix() {
        let a = TreeNumber::parse("C04.55").unwrap();
        let b = TreeNumber::parse("C04.557").unwrap();
        // "C04.55" is a *string* prefix of "C04.557" but not an ancestor.
        assert!(!a.is_ancestor_of(&b));
        let c = TreeNumber::parse("C04.557.337").unwrap();
        assert!(b.is_ancestor_of(&c));
        assert!(!c.is_ancestor_of(&b));
        assert!(b.is_ancestor_or_self(&b));
    }

    #[test]
    fn ordering_matches_sibling_display_order() {
        let mut v: Vec<TreeNumber> = ["C04.557", "C04.100", "A01", "C04"]
            .iter()
            .map(|s| TreeNumber::parse(s).unwrap())
            .collect();
        v.sort();
        let raw: Vec<&str> = v.iter().map(|t| t.as_str()).collect();
        assert_eq!(raw, ["A01", "C04", "C04.100", "C04.557"]);
    }

    #[test]
    fn category_is_first_segment() {
        assert_eq!(TreeNumber::parse("C04.557.337").unwrap().category(), "C04");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let tn = TreeNumber::parse("C04.557").unwrap();
        let json = serde_json::to_string(&tn).unwrap();
        assert_eq!(json, "\"C04.557\"");
        let back: TreeNumber = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tn);
    }
}
