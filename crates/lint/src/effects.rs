//! The std effect table: what an *unresolved* (extern) call can do.
//!
//! The call-graph builder (pass 1) resolves calls to workspace functions
//! where it can; everything else — `Vec::push`, `.unwrap()`, `format!`,
//! `Instant::now` — is classified against this small table so the
//! interprocedural rules (pass 2) can reason about effects without a type
//! system. The table is deliberately conservative *and* deliberately
//! short: it names the std surface this workspace actually uses, and a
//! miss means "no known effect", never an error.

/// The effect classes the interprocedural rules track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// May allocate (`Vec::push` growth, `Box::new`, `format!`, …).
    pub alloc: bool,
    /// May panic via an explicit std panic path (`unwrap`, `expect`,
    /// `panic!`-family macros).
    pub panic: bool,
    /// May panic via `[]`-indexing / slicing out of bounds. Tracked
    /// separately from [`Effects::panic`] so the panic-reachability rule
    /// can report the two classes at different granularities.
    pub index_panic: bool,
    /// Produces a nondeterministic value (wall clock, thread id, ambient
    /// entropy, seed-randomized iteration order).
    pub nondet: bool,
}

impl Effects {
    /// No known effect.
    pub const NONE: Effects = Effects {
        alloc: false,
        panic: false,
        index_panic: false,
        nondet: false,
    };

    /// `true` when any effect class is set.
    pub fn any(self) -> bool {
        self.alloc || self.panic || self.index_panic || self.nondet
    }

    /// The union of two effect sets.
    pub fn union(self, other: Effects) -> Effects {
        Effects {
            alloc: self.alloc || other.alloc,
            panic: self.panic || other.panic,
            index_panic: self.index_panic || other.index_panic,
            nondet: self.nondet || other.nondet,
        }
    }
}

/// Method names (`.name(…)`) that allocate when the receiver is a std
/// collection. `push` is here because of the PR 8 incident: a per-push
/// `Vec` growth hid inside the streaming hot loop until profiling found
/// it — exactly the class of cost this table exists to surface.
pub const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "collect",
    "to_string",
    "to_owned",
    "push",
    "push_str",
    "insert",
    "extend",
    "append",
    "reserve",
    "with_capacity",
];

/// Method names that can panic on `None`/`Err`.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// `Head::name` path calls that allocate. Empty constructors (`Vec::new`,
/// `String::new`, map/set `new`) are deliberately absent: std guarantees
/// they do not allocate until first insert.
pub const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// `Head::name` path calls that produce a nondeterministic value.
pub const NONDET_PATHS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("RandomState", "new"),
    ("thread", "current"),
];

/// Bare or path-tail calls that produce nondeterminism (ambient RNG).
pub const NONDET_CALLS: &[&str] = &["thread_rng", "from_entropy"];

/// Macros that allocate.
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Macros that panic (the `assert!` family is here on purpose: in
/// release library code an assert is a panic path like any other;
/// `print!`/`println!` panic when stdout is closed, e.g. `gv … | head`).
pub const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "print",
    "println",
];

/// Unordered-iteration methods: nondeterministic *only* when the
/// enclosing function also works with a hash container (the builder
/// passes that context in — the lexer cannot type receivers).
pub const UNORDERED_ITER_METHODS: &[&str] = &["iter", "keys", "values", "drain", "into_iter"];

/// Classifies an unresolved method call `.name(…)`.
///
/// `hash_context` is true when the enclosing function mentions
/// `HashMap`/`HashSet`, which arms the unordered-iteration entries.
pub fn method_effects(name: &str, hash_context: bool) -> Effects {
    let mut e = Effects::NONE;
    if ALLOC_METHODS.contains(&name) {
        e.alloc = true;
    }
    if PANIC_METHODS.contains(&name) {
        e.panic = true;
    }
    if hash_context && UNORDERED_ITER_METHODS.contains(&name) {
        e.nondet = true;
    }
    if NONDET_CALLS.contains(&name) {
        e.nondet = true;
    }
    e
}

/// Classifies an unresolved path call `Head::name(…)`.
pub fn path_effects(head: &str, name: &str) -> Effects {
    let mut e = Effects::NONE;
    if ALLOC_PATHS.contains(&(head, name)) {
        e.alloc = true;
    }
    if NONDET_PATHS.contains(&(head, name)) || NONDET_CALLS.contains(&name) {
        e.nondet = true;
    }
    e
}

/// Classifies an unresolved plain call `name(…)`.
pub fn plain_effects(name: &str) -> Effects {
    let mut e = Effects::NONE;
    if NONDET_CALLS.contains(&name) {
        e.nondet = true;
    }
    e
}

/// Classifies a macro invocation `name!`.
pub fn macro_effects(name: &str) -> Effects {
    let mut e = Effects::NONE;
    if ALLOC_MACROS.contains(&name) {
        e.alloc = true;
    }
    if PANIC_MACROS.contains(&name) {
        e.panic = true;
    }
    e
}

/// The effect of an `expr[…]` indexing site.
pub fn index_effects() -> Effects {
    Effects {
        index_panic: true,
        ..Effects::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_classifies_the_issue_examples() {
        assert!(method_effects("push", false).alloc);
        assert!(path_effects("Box", "new").alloc);
        assert!(macro_effects("format").alloc);
        assert!(method_effects("unwrap", false).panic);
        assert!(macro_effects("panic").panic);
        assert!(macro_effects("println").panic);
        assert!(index_effects().index_panic);
        assert!(path_effects("Instant", "now").nondet);
        assert!(method_effects("iter", true).nondet);
        assert!(!method_effects("iter", false).nondet);
    }

    #[test]
    fn union_and_any() {
        let e = method_effects("unwrap", false).union(macro_effects("vec"));
        assert!(e.panic && e.alloc && e.any());
        assert!(!Effects::NONE.any());
    }
}
