//! Human-readable certification reports with failure diagnostics.
//!
//! When Antidote answers *Unknown*, the interesting question is **why**:
//! which terminal abstract state blocked dominance, how wide were its
//! probability intervals, and which rival class overlapped the reference?
//! [`explain`] re-runs the abstract learner and attributes the verdict to
//! concrete evidence, which the CLI and examples can print.

use crate::engine::ExecContext;
use crate::learner::{run_abstract_shared, DomainKind};
use crate::verdict::dominant_class;
use antidote_data::{ClassId, Dataset, Subset};
use antidote_domains::{AbstractSet, CprobTransformer, Interval};
use antidote_tree::dtrace::dtrace_label;
use std::fmt;

/// One terminal state's contribution to the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalReport {
    /// Size of the terminal's base fragment.
    pub fragment_size: usize,
    /// Remaining poisoning budget at the terminal.
    pub remaining_budget: usize,
    /// `cprob#` intervals at the terminal.
    pub intervals: Vec<Interval>,
    /// The class that dominates this terminal, if any.
    pub dominant: Option<ClassId>,
    /// Whether this terminal supports the reference label.
    pub supports_reference: bool,
}

/// A full certification explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The reference label being defended.
    pub reference: ClassId,
    /// Whether robustness was proven.
    pub robust: bool,
    /// Per-terminal breakdowns.
    pub terminals: Vec<TerminalReport>,
    /// Indices (into `terminals`) of the blocking states, empty when
    /// robust.
    pub blockers: Vec<usize>,
}

impl Explanation {
    /// The single most diagnostic blocker: the one whose rival interval
    /// overlaps the reference's by the largest margin.
    pub fn worst_blocker(&self) -> Option<&TerminalReport> {
        self.blockers
            .iter()
            .map(|&i| &self.terminals[i])
            .max_by(|a, b| {
                overlap_margin(a, self.reference).total_cmp(&overlap_margin(b, self.reference))
            })
    }
}

/// How far the best rival's upper bound exceeds the reference's lower
/// bound at a terminal (positive = dominance blocked).
fn overlap_margin(t: &TerminalReport, reference: ClassId) -> f64 {
    let ref_lb = t
        .intervals
        .get(reference as usize)
        .map_or(f64::NEG_INFINITY, Interval::lb);
    t.intervals
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != reference as usize)
        .map(|(_, iv)| iv.ub() - ref_lb)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Re-runs `DTrace#` and produces a full [`Explanation`] of the verdict.
/// The run prunes subsumed disjuncts, as every certification does.
///
/// # Panics
///
/// Panics if `ds` is empty.
pub fn explain(
    ds: &Dataset,
    x: &[f64],
    depth: usize,
    n: usize,
    domain: DomainKind,
    transformer: CprobTransformer,
) -> Explanation {
    let reference = dtrace_label(ds, &Subset::full(ds), x, depth);
    let out = run_abstract_shared(
        ds,
        AbstractSet::full(ds, n),
        x,
        depth,
        domain,
        transformer,
        true,
        None,
        &ExecContext::sequential(),
    );
    let terminals: Vec<TerminalReport> = out
        .terminals
        .iter()
        .map(|t| terminal_report(t, reference, transformer))
        .collect();
    let blockers: Vec<usize> = terminals
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.supports_reference)
        .map(|(i, _)| i)
        .collect();
    Explanation {
        reference,
        robust: blockers.is_empty(),
        terminals,
        blockers,
    }
}

fn terminal_report(
    t: &AbstractSet,
    reference: ClassId,
    transformer: CprobTransformer,
) -> TerminalReport {
    let intervals = t.cprob_intervals(transformer);
    let dominant = dominant_class(&intervals);
    TerminalReport {
        fragment_size: t.len(),
        remaining_budget: t.n(),
        intervals,
        dominant,
        supports_reference: dominant == Some(reference),
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (reference class {}, {} terminal state{})",
            if self.robust { "ROBUST" } else { "unknown" },
            self.reference,
            self.terminals.len(),
            if self.terminals.len() == 1 { "" } else { "s" },
        )?;
        for (i, t) in self.terminals.iter().enumerate() {
            let mark = if t.supports_reference { "ok " } else { "BLK" };
            write!(
                f,
                "  [{mark}] terminal {i}: |T|={}, budget={}, cprob# = [",
                t.fragment_size, t.remaining_budget
            )?;
            for (j, iv) in t.intervals.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{iv}")?;
            }
            writeln!(f, "], dominant = {:?}", t.dominant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth::{self, BlobSpec};

    fn blobs() -> Dataset {
        synth::gaussian_blobs(
            &BlobSpec {
                means: vec![vec![0.0], vec![10.0]],
                stds: vec![vec![1.0], vec![1.0]],
                per_class: 100,
                quantum: Some(0.1),
            },
            7,
        )
    }

    #[test]
    fn robust_cases_have_no_blockers() {
        let ds = blobs();
        let e = explain(
            &ds,
            &[0.5],
            1,
            8,
            DomainKind::Disjuncts,
            CprobTransformer::Optimal,
        );
        assert!(e.robust);
        assert!(e.blockers.is_empty());
        assert!(e.worst_blocker().is_none());
        assert!(e.terminals.iter().all(|t| t.supports_reference));
        assert_eq!(e.reference, 0);
        let rendered = e.to_string();
        assert!(rendered.starts_with("ROBUST"));
        assert!(rendered.contains("[ok ]"));
    }

    #[test]
    fn unknown_cases_identify_blockers() {
        let ds = blobs();
        let e = explain(
            &ds,
            &[0.5],
            1,
            150,
            DomainKind::Disjuncts,
            CprobTransformer::Optimal,
        );
        assert!(!e.robust);
        assert!(!e.blockers.is_empty());
        let worst = e.worst_blocker().expect("a blocker exists");
        assert!(!worst.supports_reference);
        // The blocker's rival interval genuinely overlaps the reference's.
        assert!(overlap_margin(worst, e.reference) > 0.0);
        let rendered = e.to_string();
        assert!(rendered.contains("BLK"));
    }

    #[test]
    fn explanation_agrees_with_certifier() {
        use crate::certify::Certifier;
        let ds = blobs();
        for n in [0usize, 4, 16, 40, 150] {
            for domain in [DomainKind::Box, DomainKind::Disjuncts] {
                let cert = Certifier::new(&ds)
                    .depth(1)
                    .domain(domain)
                    .certify(&[0.5], n);
                let e = explain(&ds, &[0.5], 1, n, domain, CprobTransformer::Optimal);
                assert_eq!(cert.is_robust(), e.robust, "n={n} {domain:?}");
                assert_eq!(cert.label, e.reference);
            }
        }
    }

    #[test]
    fn terminal_reports_expose_interval_shapes() {
        let ds = synth::figure2();
        let e = explain(
            &ds,
            &[5.0],
            1,
            0,
            DomainKind::Box,
            CprobTransformer::Optimal,
        );
        assert!(e.robust);
        assert_eq!(e.terminals.len(), 1);
        let t = &e.terminals[0];
        assert_eq!(t.fragment_size, 9);
        assert_eq!(t.remaining_budget, 0);
        assert!(t.intervals.iter().all(Interval::is_point), "n = 0 is exact");
        assert_eq!(t.dominant, Some(0));
    }
}
