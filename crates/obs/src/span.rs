//! Hierarchical spans: stages laid out on the pipeline's fixed tree.
//!
//! The span tree is the only timing a recorder stores. It answers both
//! "how long did discretization take in total" (the per-stage sum,
//! [`SpanTree::stage_total_ns`]) and "*where* did that time sit in the
//! call structure" — with self-time derived structurally (parent total
//! minus children totals).
//!
//! The storage model mirrors the rest of the crate: a recorder keeps one
//! `(total_ns, count)` tally per [`Stage`], a flat array like its
//! counters, and merging recorders sums the tallies. The nesting is not
//! stored at all: [`Stage::parent`] writes it once, and a snapshot lays
//! the tallies out as a [`SpanTree`] — each stage that ran (count > 0) is
//! one span, hung under its nearest ancestor that ran, or at the root
//! when none did, with siblings in [`Stage`] order. The tree's shape is
//! therefore a function of which stages ran, never of iteration counts,
//! insertion order or thread schedules. It exports as a depth-first JSON
//! array (schema 3).

use crate::stage::Stage;
use std::fmt::Write as _;

/// One flattened node of a finished [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The stage this span measured.
    pub stage: Stage,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Semicolon-joined stage names from the root to this span (e.g.
    /// `"detect;rra-outer;rra-inner"`).
    pub path: String,
    /// Accumulated wall-clock nanoseconds, children included.
    pub total_ns: u64,
    /// Wall-clock nanoseconds not attributed to any child span
    /// (`total_ns` minus the children's totals, floored at zero).
    pub self_ns: u64,
    /// How many timed executions accumulated into this span.
    pub count: u64,
}

/// A finished run's span tree: depth-first, stage-ordered, self-time
/// derived. The deterministic export shape behind schema-3 JSONL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    /// Lays per-stage `(total_ns, count)` tallies out on the fixed stage
    /// tree (see the module docs), leaving out the stages that never ran.
    /// [`Stage::ALL`] is a depth-first order of that tree, so one pass
    /// over it meets each parent before its children and yields the
    /// spans depth-first with siblings in stage order.
    pub(crate) fn from_tallies(tallies: &[(u64, u64); Stage::COUNT]) -> Self {
        let mut spans: Vec<Span> = Vec::new();
        for stage in Stage::ALL {
            let (total_ns, count) = tallies[stage.index()];
            if count == 0 {
                continue;
            }
            let parent = std::iter::successors(stage.parent(), |p| p.parent())
                .find_map(|p| spans.iter().position(|s| s.stage == p));
            let (depth, path) = match parent {
                Some(i) => {
                    let p = &mut spans[i];
                    p.self_ns = p.self_ns.saturating_sub(total_ns);
                    (p.depth + 1, format!("{};{}", p.path, stage.name()))
                }
                None => (0, stage.name().to_string()),
            };
            spans.push(Span {
                stage,
                depth,
                path,
                total_ns,
                self_ns: total_ns,
                count,
            });
        }
        SpanTree { spans }
    }

    /// The flattened spans, depth-first from the roots.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `true` when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks a span up by its full `path`.
    pub fn get(&self, path: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Total nanoseconds of `stage`: its span's `total_ns`, 0 when it
    /// never ran (the `stages_ns` export). A stage has at most one span.
    pub fn stage_total_ns(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.total_ns)
    }

    /// Encodes the tree as a JSON array token:
    /// `[{"path":"detect","total_ns":n,"self_ns":n,"count":n},...]`.
    /// Depth and stage are recoverable from the path, so they are not
    /// repeated.
    pub fn to_json_array(&self) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 2);
        out.push('[');
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"total_ns\":{},\"self_ns\":{},\"count\":{}}}",
                span.path, span.total_ns, span.self_ns, span.count
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree from `(stage, total_ns, count)` tallies; unnamed stages
    /// never ran.
    fn tree(ran: &[(Stage, u64, u64)]) -> SpanTree {
        let mut tallies = [(0, 0); Stage::COUNT];
        for &(stage, ns, count) in ran {
            tallies[stage.index()] = (ns, count);
        }
        SpanTree::from_tallies(&tallies)
    }

    fn paths(tree: &SpanTree) -> Vec<&str> {
        tree.spans().iter().map(|s| s.path.as_str()).collect()
    }

    #[test]
    fn spans_hang_under_the_nearest_ancestor_that_ran() {
        // Without a detect root, the pipeline stages are roots.
        let roots = tree(&[
            (Stage::Discretize, 3, 1),
            (Stage::RraOuter, 10, 1),
            (Stage::RraInner, 8, 4),
        ]);
        assert_eq!(
            paths(&roots),
            ["discretize", "rra-outer", "rra-outer;rra-inner"]
        );
        // A stage that never ran has no span, not a zero-count one (a
        // timed search that scanned no candidate), and its children skip
        // it to the next ancestor that ran.
        let unscanned = tree(&[(Stage::Detect, 20, 1), (Stage::RraOuter, 10, 1)]);
        assert_eq!(paths(&unscanned), ["detect", "detect;rra-outer"]);
        let skipped = tree(&[(Stage::Detect, 10, 1), (Stage::RraInner, 8, 4)]);
        assert_eq!(paths(&skipped), ["detect", "detect;rra-inner"]);
        assert!(tree(&[]).is_empty());
    }

    #[test]
    fn spans_are_depth_first_in_stage_order() {
        let all: Vec<(Stage, u64, u64)> = Stage::ALL.iter().map(|&s| (s, 1, 1)).collect();
        let full = tree(&all);
        let shape: Vec<(&str, usize)> = full
            .spans()
            .iter()
            .map(|s| (s.path.as_str(), s.depth))
            .collect();
        assert_eq!(
            shape,
            [
                ("detect", 0),
                ("detect;discretize", 1),
                ("detect;intern", 1),
                ("detect;induce", 1),
                ("detect;density", 1),
                ("detect;rra-outer", 1),
                ("detect;rra-outer;rra-inner", 2),
            ]
        );
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let t = tree(&[
            (Stage::Detect, 1_000, 1),
            (Stage::Discretize, 300, 1),
            (Stage::Induce, 450, 1),
            (Stage::RraOuter, 200, 1),
            (Stage::RraInner, 150, 5),
        ]);
        assert_eq!(t.get("detect").unwrap().self_ns, 50);
        assert_eq!(t.get("detect;discretize").unwrap().self_ns, 300);
        assert_eq!(t.get("detect;rra-outer").unwrap().self_ns, 50);
        assert_eq!(t.stage_total_ns(Stage::RraInner), 150);
        assert_eq!(t.stage_total_ns(Stage::Density), 0);
        // Children that outlast their parent (summed parallel workers)
        // floor its self-time at zero.
        let parallel = tree(&[(Stage::RraOuter, 100, 1), (Stage::RraInner, 180, 6)]);
        assert_eq!(parallel.get("rra-outer").unwrap().self_ns, 0);
    }

    #[test]
    fn json_rendering() {
        let t = tree(&[(Stage::Detect, 100, 1), (Stage::Density, 40, 2)]);
        assert_eq!(
            t.to_json_array(),
            "[{\"path\":\"detect\",\"total_ns\":100,\"self_ns\":60,\"count\":1},\
             {\"path\":\"detect;density\",\"total_ns\":40,\"self_ns\":40,\"count\":2}]"
        );
        assert_eq!(SpanTree::default().to_json_array(), "[]");
        assert!(SpanTree::default().is_empty());
    }
}
