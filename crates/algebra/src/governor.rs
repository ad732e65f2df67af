//! Resource governance for program evaluation (DESIGN.md, "Resource
//! governance").
//!
//! `while`-programs are Turing-complete over tables (Theorem 4.1), so a
//! server evaluating untrusted programs needs more than the static count
//! caps of [`EvalLimits`]: it needs to bound *wall time* and *total
//! allocation*, and to *cancel* a run from outside, without crashing the
//! process or losing the diagnostic state the tracing layer collected.
//! A [`Budget`] carries exactly those three extensions on top of the
//! limits:
//!
//! * a **deadline** — a wall-clock allowance for the whole run;
//! * a **cell budget** — a cap on the cumulative cells produced across
//!   *all* statements of the run (the per-statement accounting already
//!   feeding `EvalStats::tables_produced`), complementing the per-table
//!   `max_cells` cap;
//! * a **[`CancelToken`]** — a shared atomic flag any thread may flip to
//!   stop the evaluation cooperatively.
//!
//! The interpreter polls the governor at every statement boundary, every
//! `while` iteration (both the naive and the delta strategy), and inside
//! every shard-pool job between tables, so a sharded statement stops
//! mid-fan-out. Polling sits at statement granularity because statements
//! are the unit of observable effect (replace semantics): aborting
//! between statements leaves the partial database in a state some prefix
//! of the program explains, which is what the partial stats and trace
//! attached to [`crate::AlgebraError::BudgetExceeded`] describe.
//!
//! On any trip, evaluation degrades gracefully instead of discarding its
//! observability state: the error carries a [`PartialRun`] with the
//! partial `EvalStats` and the partial `Trace` (open spans drained as
//! `aborted`, innermost first, so the tripped span is marked).

use crate::eval::{EvalLimits, EvalStats};
use crate::obs::trace::Trace;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource name reported when the [`CancelToken`] was flipped.
pub const RESOURCE_CANCELLED: &str = "cancelled";
/// Resource name reported when the wall-clock deadline passed; `spent`
/// and `limit` are in milliseconds.
pub const RESOURCE_DEADLINE: &str = "wall-clock deadline (ms)";
/// Resource name reported when the cumulative cell budget ran out;
/// `spent` and `limit` are cells under the `max_cells` convention
/// (`(height + 1) · (width + 1)` per produced table).
pub const RESOURCE_RUN_CELLS: &str = "run cell budget";

/// A shared cooperative cancellation flag: clone it, hand one handle to
/// the evaluation (via [`Budget::cancel`]) and keep the other; flipping
/// it from any thread stops the run at its next governor poll — at
/// latest one statement (or one shard-job table) later.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A resource budget for one evaluation: [`EvalLimits`] plus a deadline,
/// a cumulative cell budget, and a cancellation token. The plain
/// [`crate::eval::run`] is equivalent to a budget with no deadline, an
/// unlimited cell budget, and a token nobody cancels — governed and
/// ungoverned evaluation are the same code path.
#[derive(Clone, Debug)]
pub struct Budget {
    /// The static per-table / per-loop caps.
    pub limits: EvalLimits,
    /// Wall-clock allowance for the whole run (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Cumulative cells the run may produce across all statements
    /// (`usize::MAX` = unlimited). Uses the `max_cells` convention:
    /// `(height + 1) · (width + 1)` per produced table.
    pub max_run_cells: usize,
    /// Cooperative cancellation flag; keep a clone to cancel the run.
    pub cancel: CancelToken,
}

impl Default for Budget {
    /// Default limits, no deadline, unlimited cells, a fresh token.
    fn default() -> Budget {
        Budget {
            limits: EvalLimits::default(),
            deadline: None,
            max_run_cells: usize::MAX,
            cancel: CancelToken::new(),
        }
    }
}

impl Budget {
    /// A budget enforcing only the given static limits — no deadline, no
    /// cell budget, a token nobody holds.
    pub fn from_limits(limits: &EvalLimits) -> Budget {
        Budget {
            limits: *limits,
            ..Budget::default()
        }
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Set the cumulative cell budget.
    pub fn with_cell_budget(mut self, cells: usize) -> Budget {
        self.max_run_cells = cells;
        self
    }

    /// Use the given cancellation token (to share one token across
    /// several runs, or to keep a handle for cancelling this one).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Budget {
        self.cancel = cancel.clone();
        self
    }

    /// Divide this budget across `sites` evaluations run one after
    /// another (the federation per-site split): the cell budget and the
    /// deadline are divided evenly, while the cancellation token is
    /// *shared* — cancelling the parent budget stops every site, and a
    /// site that trips can cancel its siblings through the same token.
    ///
    /// The per-site cell budget is the *floor* of the division, so the
    /// site budgets never sum past the parent's: a remainder of
    /// `max_run_cells % sites` cells stays unadmitted (conservative),
    /// and with more sites than budgeted cells every site gets a
    /// zero-cell budget and trips on its first charge rather than the
    /// sites collectively admitting `sites` cells against a smaller
    /// parent budget.
    pub fn split(&self, sites: usize) -> Budget {
        let n = sites.max(1);
        Budget {
            limits: self.limits,
            deadline: self.deadline.map(|d| d / n as u32),
            max_run_cells: if self.max_run_cells == usize::MAX {
                usize::MAX
            } else {
                self.max_run_cells / n
            },
            cancel: self.cancel.clone(),
        }
    }
}

/// The diagnostic state a tripped run hands back on
/// [`crate::AlgebraError::BudgetExceeded`]: everything the run had
/// counted and traced up to the abort. Compares equal to any other
/// `PartialRun` — the payload is diagnostic and does not affect error
/// identity, which keeps `AlgebraError`'s `PartialEq` meaningful (the
/// differential oracle compares errors across evaluation strategies
/// whose partial timings necessarily differ).
#[derive(Clone, Debug, Default)]
pub struct PartialRun {
    /// Statistics accumulated up to the trip (per-op counts and timings,
    /// iterations, produced shapes — see [`EvalStats`]).
    pub stats: EvalStats,
    /// Spans recorded up to the trip, plus the spans still open at the
    /// trip drained as `aborted` (innermost first: the first aborted
    /// span is the unit of work the trip interrupted). Empty below
    /// [`crate::TraceLevel::Spans`].
    pub trace: Trace,
}

impl PartialEq for PartialRun {
    fn eq(&self, _: &PartialRun) -> bool {
        true
    }
}

impl Eq for PartialRun {}

/// Per-run governor state: the budget resolved against the run's start
/// instant, plus the cell accountant. Shared by reference with shard
/// jobs, hence the atomic counter and `Sync`.
pub(crate) struct Governor {
    start: Instant,
    deadline: Option<Instant>,
    deadline_ms: usize,
    cancel: CancelToken,
    max_run_cells: usize,
    cells_spent: AtomicUsize,
}

impl Governor {
    pub(crate) fn new(budget: &Budget) -> Governor {
        let start = Instant::now();
        Governor {
            start,
            deadline: budget.deadline.map(|d| start + d),
            deadline_ms: budget
                .deadline
                .map(|d| d.as_millis().min(usize::MAX as u128) as usize)
                .unwrap_or(0),
            cancel: budget.cancel.clone(),
            max_run_cells: budget.max_run_cells,
            cells_spent: AtomicUsize::new(0),
        }
    }

    /// Check the cancellation flag and the deadline. Two relaxed-ish
    /// atomic/branch reads when neither is set — cheap enough for every
    /// statement boundary and every shard-job table.
    pub(crate) fn poll(&self) -> crate::error::Result<()> {
        if self.cancel.is_cancelled() {
            return Err(crate::error::AlgebraError::budget_trip(
                RESOURCE_CANCELLED,
                0,
                0,
            ));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(crate::error::AlgebraError::budget_trip(
                    RESOURCE_DEADLINE,
                    self.start.elapsed().as_millis().min(usize::MAX as u128) as usize,
                    self.deadline_ms,
                ));
            }
        }
        Ok(())
    }

    /// Charge `cells` produced cells against the run budget. Called on
    /// the evaluating thread once per statement (with the statement's
    /// total production), so the cumulative total — and therefore the
    /// trip point — is deterministic for a given program and budget,
    /// across strategies and shard configurations.
    pub(crate) fn charge_cells(&self, cells: usize) -> crate::error::Result<()> {
        let prev = self.cells_spent.fetch_add(cells, Ordering::Relaxed);
        let spent = prev.saturating_add(cells);
        if spent > self.max_run_cells {
            return Err(crate::error::AlgebraError::budget_trip(
                RESOURCE_RUN_CELLS,
                spent,
                self.max_run_cells,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn default_budget_governs_nothing() {
        let gov = Governor::new(&Budget::default());
        assert!(gov.poll().is_ok());
        assert!(gov.charge_cells(usize::MAX - 1).is_ok());
    }

    #[test]
    fn cell_budget_trips_on_the_crossing_charge() {
        let gov = Governor::new(&Budget::default().with_cell_budget(100));
        assert!(gov.charge_cells(60).is_ok());
        assert!(gov.charge_cells(40).is_ok(), "spending exactly 100 is fine");
        let err = gov.charge_cells(1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(RESOURCE_RUN_CELLS), "{msg}");
        assert!(msg.contains("101") && msg.contains("100"), "{msg}");
    }

    #[test]
    fn expired_deadline_trips_the_poll() {
        let gov = Governor::new(&Budget::default().with_deadline(Duration::from_millis(0)));
        let err = gov.poll().unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn cancellation_wins_over_other_resources() {
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::new(
            &Budget::default()
                .with_deadline(Duration::from_millis(0))
                .with_cancel(token),
        );
        let err = gov.poll().unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn split_divides_cells_and_deadline_but_shares_the_token() {
        let parent = Budget::default()
            .with_cell_budget(1000)
            .with_deadline(Duration::from_millis(300));
        let site = parent.split(3);
        assert_eq!(site.max_run_cells, 333);
        assert_eq!(site.deadline, Some(Duration::from_millis(100)));
        parent.cancel.cancel();
        assert!(site.cancel.is_cancelled(), "split shares the parent token");
        let unlimited = Budget::default().split(8);
        assert_eq!(unlimited.max_run_cells, usize::MAX);
        assert_eq!(unlimited.deadline, None);
    }

    #[test]
    fn split_site_budgets_never_sum_past_the_parent() {
        // Regression: `(cells / n).max(1)` admitted one cell per site, so
        // 8 sites against a 5-cell parent could admit 8 cells in total.
        for (cells, sites) in [(5, 8), (1, 2), (7, 3), (1000, 3), (0, 4)] {
            let parent = Budget::default().with_cell_budget(cells);
            let site = parent.split(sites);
            assert!(
                site.max_run_cells.saturating_mul(sites) <= cells,
                "cells={cells} sites={sites} admits {} per site",
                site.max_run_cells
            );
        }
        // With more sites than cells, a site's budget is zero and its
        // governor trips on the very first charge.
        let site = Budget::default().with_cell_budget(5).split(8);
        assert_eq!(site.max_run_cells, 0);
        let gov = Governor::new(&site);
        let err = gov.charge_cells(1).unwrap_err();
        assert!(err.to_string().contains("cell budget"), "{err}");
    }

    #[test]
    fn partial_run_does_not_affect_error_identity() {
        let a = PartialRun::default();
        let mut b = PartialRun::default();
        b.stats.while_iterations = 42;
        assert_eq!(a, b);
    }
}
