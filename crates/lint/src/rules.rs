//! The rule catalog: codes, one-line summaries, and rationale.
//!
//! Rules fall into four families, mirroring the invariants the rest of
//! the workspace enforces dynamically (byte-identical artifacts, saturating
//! integer-ns time, graceful fault recovery):
//!
//! * `D*` — determinism: sources of nondeterministic ordering or timing
//!   (`D5` is the interprocedural taint pass over the symbol graph);
//! * `T*` — time safety: lossy ns arithmetic (`T1`) and cross-unit
//!   dimensional mismatches (`T2`);
//! * `R1` — recovery robustness: panics in fault-handling paths;
//! * `L1` — lock-order cycles over the workspace `Mutex`/`RwLock` state;
//! * `A*` — meta rules about the suppression annotations themselves.
//!
//! `A0`/`A1`/`A2` are not suppressible: a malformed or stale annotation
//! must stay loud, otherwise the audit trail the grammar provides rots.
//!
//! `D5`, `T2`, and `L1` are *interprocedural*: they need the whole
//! workspace's [`crate::symbols::SymbolGraph`], so they only fire from
//! the workspace entry point ([`crate::scan::analyze`] / [`crate::run`]),
//! never from a lone [`crate::scan::scan_file`] call. Their stale-allow
//! audit is likewise split out (`A2` instead of `A1`) so a single-file
//! scan never mislabels an interprocedural suppression as stale.

/// Stable per-rule identifier (appears in diagnostics, JSON, and
/// `// lint: allow(CODE, reason)` annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// Unordered `HashMap`/`HashSet` iteration on an emission/ordering path.
    D1,
    /// Wall-clock time source (`Instant::now`, `SystemTime`).
    D2,
    /// Raw threading primitive outside the deterministic `par_map` harness.
    D3,
    /// Order-sensitive float accumulation over an unordered iterator.
    D4,
    /// Nondeterminism taint reaching an artifact/report/metrics sink
    /// through a cross-function call chain.
    D5,
    /// Lossy cast or unchecked arithmetic on integer-ns time values.
    T1,
    /// Cross-unit time arithmetic/comparison/assignment without an
    /// explicit conversion (ns/us/ms/float-seconds dimensional analysis).
    T2,
    /// `unwrap`/`expect`/`panic!` in a recovery or fault-handling path.
    R1,
    /// Lock-order cycle across `Mutex`/`RwLock` acquisitions.
    L1,
    /// Malformed `// lint:` annotation.
    A0,
    /// Unused (stale) suppression annotation for an intra-file rule.
    A1,
    /// Unused (stale) suppression annotation for an interprocedural rule.
    A2,
}

impl RuleCode {
    /// All rules, in catalog order.
    pub const ALL: [RuleCode; 12] = [
        RuleCode::D1,
        RuleCode::D2,
        RuleCode::D3,
        RuleCode::D4,
        RuleCode::D5,
        RuleCode::T1,
        RuleCode::T2,
        RuleCode::R1,
        RuleCode::L1,
        RuleCode::A0,
        RuleCode::A1,
        RuleCode::A2,
    ];

    /// The stable code string (`"D1"`, `"T1"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::D1 => "D1",
            RuleCode::D2 => "D2",
            RuleCode::D3 => "D3",
            RuleCode::D4 => "D4",
            RuleCode::D5 => "D5",
            RuleCode::T1 => "T1",
            RuleCode::T2 => "T2",
            RuleCode::R1 => "R1",
            RuleCode::L1 => "L1",
            RuleCode::A0 => "A0",
            RuleCode::A1 => "A1",
            RuleCode::A2 => "A2",
        }
    }

    /// Parses a code string (exact match, case-sensitive).
    pub fn parse(s: &str) -> Option<RuleCode> {
        RuleCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// All code names, for error messages.
    pub fn all_names() -> Vec<&'static str> {
        RuleCode::ALL.iter().map(|c| c.as_str()).collect()
    }

    /// Whether `// lint: allow(...)` may silence this rule. The meta
    /// rules (`A0`, `A1`, `A2`) always stay loud.
    pub fn suppressible(self) -> bool {
        !matches!(self, RuleCode::A0 | RuleCode::A1 | RuleCode::A2)
    }

    /// Whether this rule needs the workspace symbol graph. A lone
    /// [`crate::scan::scan_file`] call cannot evaluate these, so it
    /// leaves their suppressions unjudged (the `A2` audit runs only at
    /// workspace scope).
    pub fn interprocedural(self) -> bool {
        matches!(self, RuleCode::D5 | RuleCode::T2 | RuleCode::L1)
    }

    /// One-line summary, used as the diagnostic headline.
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::D1 => "unordered hash-map/set iteration on an ordering-sensitive path",
            RuleCode::D2 => "wall-clock time source in deterministic code",
            RuleCode::D3 => "raw threading primitive outside the par_map harness",
            RuleCode::D4 => "order-sensitive float accumulation over an unordered iterator",
            RuleCode::D5 => "nondeterminism taint reaching a sink through a call chain",
            RuleCode::T1 => "lossy cast or unchecked arithmetic on integer-ns time",
            RuleCode::T2 => "cross-unit time arithmetic without an explicit conversion",
            RuleCode::R1 => "panic path inside fault-recovery code",
            RuleCode::L1 => "lock-order cycle across Mutex/RwLock acquisitions",
            RuleCode::A0 => "malformed lint annotation",
            RuleCode::A1 => "unused lint suppression",
            RuleCode::A2 => "unused interprocedural lint suppression",
        }
    }

    /// Longer rationale shown with `gpuflow lint --explain`-style output
    /// and reproduced in `docs/static_analysis.md`.
    pub fn explanation(self) -> &'static str {
        match self {
            RuleCode::D1 => {
                "Iterating a HashMap/HashSet yields elements in hash order, which varies \
                 across runs and platforms. Anything feeding artifact bytes, telemetry \
                 emission, or scheduling decisions must iterate in a total order: collect \
                 and sort, use a BTreeMap/BTreeSet, or reduce with an order-insensitive \
                 fold (max/min/count/sum over integers). Fix by sorting after collect or \
                 switching the container; annotate when the consumer is provably \
                 order-insensitive."
            }
            RuleCode::D2 => {
                "Instant::now/SystemTime read the host clock, so their values differ every \
                 run. Simulated time (SimTime/SimDuration) is the only clock allowed on \
                 result paths. Host-clock probes are legitimate only for self-measurement \
                 (e.g. benchmark timers, progress lines on stderr) where the \
                 value never reaches a deterministic artifact — annotate those."
            }
            RuleCode::D3 => {
                "std::thread::spawn and raw channels introduce scheduling nondeterminism. \
                 All parallelism must flow through the experiments par_map harness, which \
                 joins results back in input order. Only the harness itself may touch the \
                 primitives (annotated)."
            }
            RuleCode::D4 => {
                "Float addition is not associative: summing f64s in hash order produces \
                 run-to-run ULP drift that compounds into artifact diffs. Sum in a sorted \
                 order, sum integers (ns) and convert once at the end, or use an \
                 order-insensitive formulation."
            }
            RuleCode::D5 => {
                "A nondeterministic value (hash-order iteration, a wall clock, a thread \
                 id, a pointer-to-integer cast, RNG state) produced inside one function \
                 can escape through its return value and reach an artifact renderer, \
                 output_fingerprint, metrics exposition, or telemetry emission several \
                 calls later — invisible to the per-function rules. The taint pass \
                 propagates source-ness along the workspace call graph and reports the \
                 full source-to-sink chain. Break the chain (sort, use virtual time, \
                 drop the value before the sink) or annotate the sink-side call site \
                 with why the value never shapes deterministic output."
            }
            RuleCode::T1 => {
                "All times are u64 nanoseconds (u128 for sums). Lossy `as` casts truncate \
                 silently (f64->u64 saturates only since Rust 1.45; i64 wraps) and \
                 unchecked +/-/* can overflow in release builds. Use \
                 SimTime::duration_since (saturating), SimDuration::from_secs_f64, \
                 u64::try_from, or checked_*/saturating_* arithmetic; annotate arithmetic \
                 that is bounded by construction."
            }
            RuleCode::T2 => {
                "Time values live in different units: integer ns (`*_ns`, `as_nanos`), \
                 integer us (`*_us`, the daemon journal grid), integer ms (`*_ms`), \
                 integer seconds (`*_secs`), and float seconds (`as_secs_f64`). Adding, \
                 comparing, or assigning across units without an explicit conversion is \
                 dimensionally wrong even when every operand is a u64 — the classic \
                 silent 1000x. The classifier infers units from suffixes, field names, \
                 and the conversion-call table, and follows them across call boundaries \
                 via parameter and return-name inference; a statement that multiplies \
                 or divides by a scale factor counts as converting. Fix by converting \
                 explicitly; annotate when the mixed units are intentional."
            }
            RuleCode::R1 => {
                "Recovery code runs exactly when invariants are already broken; an unwrap \
                 there turns a recoverable fault into an abort, which the chaos suite \
                 cannot distinguish from a real crash. Fault/retry/crash/rejoin paths must \
                 degrade gracefully — return, skip, or record, never panic."
            }
            RuleCode::L1 => {
                "Two threads acquiring the same pair of locks in opposite orders can \
                 deadlock. The pass indexes every Mutex/RwLock binding in the \
                 workspace, records each function's acquisition order (inlining one \
                 call level, so a helper's own acquisitions count while its guards are \
                 possibly still held), and reports any cycle in the resulting lock \
                 graph with the functions contributing each edge. Fix by imposing one \
                 global acquisition order; annotate only when the cycle is provably \
                 unreachable (e.g. the two orders are behind the same outer lock)."
            }
            RuleCode::A0 => {
                "A comment starting `// lint:` is addressed to this analyzer. If it does \
                 not parse as allow(CODE, reason) with a known, suppressible code and a \
                 non-empty reason, the suppression the author intended is silently not \
                 happening — fix the annotation. A0 cannot itself be suppressed."
            }
            RuleCode::A1 => {
                "This allow(...) annotation matched no finding, so either the flagged code \
                 was fixed (delete the annotation) or the annotation is on the wrong line \
                 (move it). Stale suppressions hide future regressions. A1 cannot itself \
                 be suppressed."
            }
            RuleCode::A2 => {
                "This allow(...) names an interprocedural rule (D5/T2/L1) but matched no \
                 finding of the workspace-level pass — the chain it once silenced was \
                 broken, the units were fixed, or the lock order changed. Delete or move \
                 the annotation; a stale interprocedural suppression is worse than an \
                 intra-file one because the code it excuses may be far from the \
                 annotation. A2 cannot itself be suppressed, and only the workspace \
                 entry point raises it (single-file scans cannot judge these allows)."
            }
        }
    }
}

impl std::fmt::Display for RuleCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_strings() {
        for c in RuleCode::ALL {
            assert_eq!(RuleCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(RuleCode::parse("D9"), None);
        assert_eq!(RuleCode::parse("d1"), None);
    }

    #[test]
    fn meta_rules_are_not_suppressible() {
        assert!(!RuleCode::A0.suppressible());
        assert!(!RuleCode::A1.suppressible());
        assert!(!RuleCode::A2.suppressible());
        assert!(RuleCode::D1.suppressible());
        assert!(RuleCode::T1.suppressible());
        assert!(RuleCode::D5.suppressible());
        assert!(RuleCode::T2.suppressible());
        assert!(RuleCode::L1.suppressible());
    }

    #[test]
    fn interprocedural_rules_are_exactly_d5_t2_l1() {
        let inter: Vec<RuleCode> = RuleCode::ALL
            .iter()
            .copied()
            .filter(|c| c.interprocedural())
            .collect();
        assert_eq!(inter, vec![RuleCode::D5, RuleCode::T2, RuleCode::L1]);
    }

    #[test]
    fn every_rule_has_docs() {
        for c in RuleCode::ALL {
            assert!(!c.summary().is_empty());
            assert!(c.explanation().len() > 80, "{c} explanation too thin");
        }
    }
}
