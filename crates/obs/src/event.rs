//! Structured per-decision events and the bounded ring buffer that stores
//! them.
//!
//! Counters say *how many* distance calls a search made; events say *why*:
//! each outer candidate the RRA loop visits leaves a `Visited` record, and
//! either a `Pruned` (a match under `best_so_far` disqualified it) or a
//! `Completed` record (with its exact nearest-neighbor distance), each
//! carrying the distance calls spent on that candidate. Distance kernels
//! add an `Abandoned` record per early-abandoned call. The ring is
//! bounded: when full, the oldest events are overwritten and the drop is
//! accounted for, so a long run can never grow memory without limit.

use std::fmt::Write as _;

/// What kind of decision an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// The RRA outer loop started evaluating a candidate.
    Visited,
    /// The candidate was disqualified by a match below `best_so_far`;
    /// `calls` is the distance calls spent, `value` the disqualifying
    /// nearest distance.
    Pruned,
    /// The candidate survived the full inner loop; `value` is its exact
    /// nearest-neighbor distance, `calls` the distance calls spent.
    Completed,
    /// A distance computation was cut short; `position` is the prefix
    /// index at which the bound was proven, `length` the full length, and
    /// `value` the abandon threshold in force.
    Abandoned,
}

impl EventKind {
    /// The stable machine-readable name (the JSONL `kind` value).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::Visited => "visited",
            EventKind::Pruned => "pruned",
            EventKind::Completed => "completed",
            EventKind::Abandoned => "abandoned",
        }
    }
}

/// One structured decision record. Plain data, `Copy`, no allocation —
/// cheap enough to construct on an instrumented hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The decision recorded.
    pub kind: EventKind,
    /// Series position (candidate start; abandon prefix for
    /// [`EventKind::Abandoned`]).
    pub position: u64,
    /// Candidate / subsequence length in points.
    pub length: u64,
    /// Grammar rule id backing the candidate (`None` for uncovered runs
    /// and non-candidate events).
    pub rule: Option<u32>,
    /// Rule-usage frequency of the candidate (the outer ordering key).
    pub frequency: u64,
    /// Distance calls attributed to this decision.
    pub calls: u64,
    /// Kind-specific measurement (nearest distance, abandon threshold).
    pub value: f64,
}

impl Event {
    /// An event with every field zeroed except the kind.
    pub const fn new(kind: EventKind) -> Self {
        Self {
            kind,
            position: 0,
            length: 0,
            rule: None,
            frequency: 0,
            calls: 0,
            value: 0.0,
        }
    }

    /// Encodes the event as one JSON line (no trailing newline). Schema:
    /// `{"schema":7,"type":"event","kind":str,"position":int,"length":int,
    /// "rule":int|null,"frequency":int,"calls":int,"value":float}` —
    /// every key always present.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"schema\":{},\"type\":\"event\",\"kind\":\"{}\",\"position\":{},\"length\":{}",
            crate::trace::SCHEMA_VERSION,
            self.kind.name(),
            self.position,
            self.length
        );
        match self.rule {
            Some(r) => {
                let _ = write!(out, ",\"rule\":{r}");
            }
            None => out.push_str(",\"rule\":null"),
        }
        let _ = write!(
            out,
            ",\"frequency\":{},\"calls\":{},\"value\":{}}}",
            self.frequency,
            self.calls,
            crate::trace::format_json_f64(self.value)
        );
        out
    }
}

/// A bounded ring of [`Event`]s: pushes are O(1); once `capacity` events
/// are held, each push overwrites the oldest entry (and is counted in
/// [`EventRing::dropped`], so consumers can tell a truncated trace from a
/// complete one).
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<Event>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    /// Total events ever pushed (≥ `buf.len()`).
    recorded: u64,
    capacity: usize,
}

impl EventRing {
    /// Default event capacity — roomy enough for every decision of a
    /// figure-sized run, bounded enough that a monitor streaming forever
    /// holds a few megabytes at most.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// An empty ring with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty ring holding at most `capacity` events (min 1). Memory is
    /// allocated lazily as events arrive, not up front.
    fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            recorded: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Pushes every event `other` holds, oldest first, and carries over
    /// the events `other` dropped, so [`EventRing::recorded`] grows by
    /// `other.recorded()`: a merged ring keeps its source's drop count.
    pub fn absorb(&mut self, other: &EventRing) {
        for event in other.iter() {
            self.push(*event);
        }
        self.recorded += other.dropped();
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no event is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The held events as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().copied().collect()
    }
}

impl Default for EventRing {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, position: u64) -> Event {
        Event {
            position,
            ..Event::new(kind)
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut ring = EventRing::with_capacity(3);
        for i in 0..5u64 {
            ring.push(ev(EventKind::Visited, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let positions: Vec<u64> = ring.iter().map(|e| e.position).collect();
        assert_eq!(positions, vec![2, 3, 4]);
    }

    #[test]
    fn overwrite_semantics_exactly_at_wraparound() {
        // Exactly at capacity: nothing dropped yet, order intact.
        let mut ring = EventRing::with_capacity(4);
        for i in 0..4u64 {
            ring.push(ev(EventKind::Visited, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 4);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            ring.iter().map(|e| e.position).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );

        // The capacity+1'th push evicts exactly the oldest event and
        // nothing else.
        ring.push(ev(EventKind::Pruned, 4));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(
            ring.iter().map(|e| e.position).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );

        // A full second lap: head returns to 0, contents are the last
        // `capacity` pushes in order, drop accounting is exact.
        for i in 5..8u64 {
            ring.push(ev(EventKind::Completed, i));
        }
        assert_eq!(ring.recorded(), 8);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(
            ring.iter().map(|e| e.position).collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        assert_eq!(ring.to_vec()[0].kind, EventKind::Pruned);

        // One more push after the exact second wraparound still evicts
        // only the oldest.
        ring.push(ev(EventKind::Abandoned, 8));
        assert_eq!(
            ring.iter().map(|e| e.position).collect::<Vec<_>>(),
            vec![5, 6, 7, 8]
        );
        assert_eq!(ring.dropped(), 5);
    }

    #[test]
    fn capacity_one_ring_holds_only_latest() {
        let mut ring = EventRing::with_capacity(1);
        for i in 0..3u64 {
            ring.push(ev(EventKind::Abandoned, i));
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.to_vec()[0].position, 2);
        // with_capacity(0) clamps to 1 rather than panicking on push.
        let mut zero = EventRing::with_capacity(0);
        zero.push(ev(EventKind::Visited, 9));
        zero.push(ev(EventKind::Visited, 10));
        assert_eq!(zero.len(), 1);
        assert_eq!(zero.to_vec()[0].position, 10);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut ring = EventRing::new();
        for i in 0..10u64 {
            ring.push(ev(EventKind::Completed, i));
        }
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.to_vec().len(), 10);
        assert_eq!(ring.to_vec()[0].position, 0);
    }

    #[test]
    fn event_jsonl_has_every_key() {
        let e = Event {
            kind: EventKind::Completed,
            position: 120,
            length: 85,
            rule: Some(7),
            frequency: 2,
            calls: 31,
            value: 0.25,
        };
        let json = e.to_jsonl();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "schema",
            "type",
            "kind",
            "position",
            "length",
            "rule",
            "frequency",
            "calls",
            "value",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} in {json}");
        }
        assert!(json.contains(&format!("\"schema\":{},", crate::trace::SCHEMA_VERSION)));
        assert!(json.contains("\"kind\":\"completed\""));
        assert!(json.contains("\"rule\":7"));
        assert!(json.contains("\"value\":0.25"));
        // No rule → explicit null, key still present.
        let none = Event::new(EventKind::Abandoned).to_jsonl();
        assert!(none.contains("\"rule\":null"));
        assert!(none.contains("\"kind\":\"abandoned\""));
    }

    #[test]
    fn kind_names_are_unique() {
        let kinds = [
            EventKind::Visited,
            EventKind::Pruned,
            EventKind::Completed,
            EventKind::Abandoned,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
