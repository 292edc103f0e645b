//! Hierarchical spans: stages arranged in an explicit parent/child tree.
//!
//! The span tree is the only timing a recorder stores. It answers both
//! "how long did discretization take in total" (the per-stage sum,
//! [`SpanTree::stage_total_ns`]) and "*where* did that time sit in the
//! call structure" — with self-time derived structurally (parent total
//! minus children totals).
//!
//! The storage model mirrors the rest of the crate: recorders own a
//! mutable [`SpanSet`] keyed by `(parent, stage)` — find-or-create, so
//! repeated timings of the same edge accumulate into one node and the
//! tree shape is a function of the code path, not the iteration count or
//! thread schedule. A finished run snapshots into a [`SpanTree`]: a
//! depth-first, stage-ordered flattening with derived self-time, exported
//! as a JSON array (schema 3).

use crate::stage::Stage;
use std::fmt::Write as _;

/// An opaque handle to one node in a recorder's span tree.
///
/// Obtained from [`Recorder::span_id`](crate::Recorder::span_id) and fed
/// back to [`Recorder::record_span`](crate::Recorder::record_span); only
/// meaningful for the recorder that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    stage: Stage,
    parent: Option<SpanId>,
    total_ns: u64,
    count: u64,
}

/// The mutable span storage inside a recorder.
///
/// Nodes are keyed by `(parent, stage)`: asking for the same edge twice
/// returns the same node, so per-iteration timers accumulate instead of
/// fanning out one node per call. Creation order guarantees a parent's
/// storage index precedes its children's, which [`SpanSet::merge_from`]
/// exploits to graft one set under another in a single forward walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    nodes: Vec<Node>,
}

impl SpanSet {
    /// An empty set.
    pub const fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// `true` when no span has been created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finds or creates the node for `stage` under `parent` (`None` =
    /// root) and returns its id.
    pub fn span_id(&mut self, parent: Option<SpanId>, stage: Stage) -> SpanId {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.parent == parent && node.stage == stage {
                return SpanId(i as u32);
            }
        }
        self.nodes.push(Node {
            stage,
            parent,
            total_ns: 0,
            count: 0,
        });
        SpanId((self.nodes.len() - 1) as u32)
    }

    /// Accumulates `nanos` of wall-clock time and `count` completions
    /// into a node ([`SpanTimer`](crate::SpanTimer) passes `count = 1`
    /// per finish; merges pass the source node's whole tally).
    pub fn record(&mut self, id: SpanId, nanos: u64, count: u64) {
        let node = &mut self.nodes[id.0 as usize];
        node.total_ns += nanos;
        node.count += count;
    }

    /// Grafts every node of `other` into this set, attaching `other`'s
    /// roots under `under`. Tallies on already-existing edges accumulate,
    /// so merging per-worker sets produces the same tree as one
    /// sequential recording — the determinism contract the parallel RRA
    /// search relies on.
    pub fn merge_from(&mut self, other: &SpanSet, under: Option<SpanId>) {
        let mut mapped: Vec<SpanId> = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            // Parents are created before their children, so the parent's
            // mapping is always already available.
            let parent = match node.parent {
                Some(p) => Some(mapped[p.0 as usize]),
                None => under,
            };
            let id = self.span_id(parent, node.stage);
            self.record(id, node.total_ns, node.count);
            mapped.push(id);
        }
    }

    /// Flattens into a deterministic [`SpanTree`]: depth-first from the
    /// roots, siblings ordered by [`Stage::index`]. Because nodes are
    /// deduplicated by `(parent, stage)`, this ordering is total — the
    /// exported tree is bit-identical for any thread count or insertion
    /// order.
    pub fn snapshot(&self) -> SpanTree {
        let mut spans = Vec::with_capacity(self.nodes.len());
        self.flatten(None, "", 0, &mut spans);
        SpanTree { spans }
    }

    fn flatten(&self, parent: Option<SpanId>, prefix: &str, depth: usize, out: &mut Vec<Span>) {
        let mut children: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == parent)
            .collect();
        children.sort_unstable_by_key(|&i| self.nodes[i].stage.index());
        for i in children {
            let node = &self.nodes[i];
            let path = if prefix.is_empty() {
                node.stage.name().to_string()
            } else {
                format!("{prefix};{}", node.stage.name())
            };
            let child_total: u64 = self
                .nodes
                .iter()
                .filter(|n| n.parent == Some(SpanId(i as u32)))
                .map(|n| n.total_ns)
                .sum();
            out.push(Span {
                stage: node.stage,
                depth,
                path: path.clone(),
                total_ns: node.total_ns,
                self_ns: node.total_ns.saturating_sub(child_total),
                count: node.count,
            });
            self.flatten(Some(SpanId(i as u32)), &path, depth + 1, out);
        }
    }
}

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

    /// Total nanoseconds of `stage`: the sum of `total_ns` over every
    /// span of that stage, wherever it sits in the tree (the `stages_ns`
    /// export). Same-stage spans never nest, so nothing is counted twice.
    pub fn stage_total_ns(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.total_ns)
            .sum()
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

    #[test]
    fn span_ids_deduplicate_by_parent_and_stage() {
        let mut set = SpanSet::new();
        let root = set.span_id(None, Stage::Detect);
        let outer = set.span_id(Some(root), Stage::RraOuter);
        assert_eq!(set.span_id(None, Stage::Detect), root);
        assert_eq!(set.span_id(Some(root), Stage::RraOuter), outer);
        assert_ne!(root, outer);
        // Same stage under a different parent is a different node.
        assert_ne!(set.span_id(None, Stage::RraOuter), outer);
    }

    #[test]
    fn record_accumulates_time_and_count() {
        let mut set = SpanSet::new();
        let id = set.span_id(None, Stage::Induce);
        set.record(id, 100, 1);
        set.record(id, 50, 1);
        let tree = set.snapshot();
        let span = tree.get("induce").unwrap();
        assert_eq!(span.total_ns, 150);
        assert_eq!(span.count, 2);
        assert_eq!(span.self_ns, 150);
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut set = SpanSet::new();
        let root = set.span_id(None, Stage::Detect);
        let a = set.span_id(Some(root), Stage::Discretize);
        let b = set.span_id(Some(root), Stage::Induce);
        set.record(root, 1_000, 1);
        set.record(a, 300, 1);
        set.record(b, 450, 1);
        let tree = set.snapshot();
        assert_eq!(tree.get("detect").unwrap().self_ns, 250);
        assert_eq!(tree.get("detect").unwrap().total_ns, 1_000);
        assert_eq!(tree.get("detect;discretize").unwrap().self_ns, 300);
        assert_eq!(tree.get("detect;induce").unwrap().depth, 1);
    }

    #[test]
    fn snapshot_orders_siblings_by_stage_regardless_of_insertion() {
        let mut forward = SpanSet::new();
        let r = forward.span_id(None, Stage::Detect);
        let a = forward.span_id(Some(r), Stage::Discretize);
        forward.record(a, 1, 1);
        let b = forward.span_id(Some(r), Stage::Induce);
        forward.record(b, 2, 1);
        forward.record(r, 10, 1);

        let mut backward = SpanSet::new();
        let r = backward.span_id(None, Stage::Detect);
        let b = backward.span_id(Some(r), Stage::Induce);
        backward.record(b, 2, 1);
        let a = backward.span_id(Some(r), Stage::Discretize);
        backward.record(a, 1, 1);
        backward.record(r, 10, 1);

        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn merge_from_grafts_roots_under_key_and_accumulates() {
        // Two "workers" each timed rra-inner at their root; merging both
        // under the same outer span must equal one sequential recording.
        let mut main = SpanSet::new();
        let outer = main.span_id(None, Stage::RraOuter);
        main.record(outer, 1_000, 1);

        for (ns, n) in [(300u64, 3u64), (200, 2)] {
            let mut worker = SpanSet::new();
            let inner = worker.span_id(None, Stage::RraInner);
            worker.record(inner, ns, n);
            main.merge_from(&worker, Some(outer));
        }

        let mut sequential = SpanSet::new();
        let outer = sequential.span_id(None, Stage::RraOuter);
        sequential.record(outer, 1_000, 1);
        let inner = sequential.span_id(Some(outer), Stage::RraInner);
        sequential.record(inner, 500, 5);

        assert_eq!(main.snapshot(), sequential.snapshot());
        let tree = main.snapshot();
        assert_eq!(tree.get("rra-outer;rra-inner").unwrap().count, 5);
        assert_eq!(tree.get("rra-outer").unwrap().self_ns, 500);
    }

    #[test]
    fn merge_preserves_nested_structure() {
        let mut child = SpanSet::new();
        let o = child.span_id(None, Stage::RraOuter);
        let i = child.span_id(Some(o), Stage::RraInner);
        child.record(o, 100, 1);
        child.record(i, 60, 4);

        let mut main = SpanSet::new();
        let root = main.span_id(None, Stage::Detect);
        main.record(root, 150, 1);
        main.merge_from(&child, Some(root));

        let tree = main.snapshot();
        let paths: Vec<&str> = tree.spans().iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["detect", "detect;rra-outer", "detect;rra-outer;rra-inner"]
        );
        assert_eq!(tree.get("detect").unwrap().self_ns, 50);
        assert_eq!(tree.get("detect;rra-outer;rra-inner").unwrap().count, 4);
    }

    #[test]
    fn stage_totals_sum_every_span_of_the_stage() {
        let mut set = SpanSet::new();
        let a = set.span_id(None, Stage::Detect);
        let b = set.span_id(None, Stage::Density);
        let nested = set.span_id(Some(a), Stage::Density);
        set.record(a, 1_000, 1);
        set.record(b, 30, 1);
        set.record(nested, 400, 2);
        let tree = set.snapshot();
        assert_eq!(tree.stage_total_ns(Stage::Density), 430);
        assert_eq!(tree.stage_total_ns(Stage::Detect), 1_000);
        assert_eq!(tree.stage_total_ns(Stage::Induce), 0);
    }

    #[test]
    fn json_rendering() {
        let mut set = SpanSet::new();
        let root = set.span_id(None, Stage::Detect);
        let inner = set.span_id(Some(root), Stage::Density);
        set.record(root, 100, 1);
        set.record(inner, 40, 2);
        let tree = set.snapshot();
        assert_eq!(
            tree.to_json_array(),
            "[{\"path\":\"detect\",\"total_ns\":100,\"self_ns\":60,\"count\":1},\
             {\"path\":\"detect;density\",\"total_ns\":40,\"self_ns\":40,\"count\":2}]"
        );
        assert_eq!(SpanTree::default().to_json_array(), "[]");
        assert!(SpanTree::default().is_empty());
    }
}
