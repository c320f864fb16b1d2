//! Campaign execution engines.
//!
//! A characterization campaign is a list of independent (benchmark, core)
//! *work items*; how those items are dispatched onto workers is an
//! execution detail that must never leak into results or telemetry. This
//! module owns that detail behind the [`CampaignExecutor`] trait: the
//! runner hands an executor the campaign's canonical item list (wrapped in
//! an [`ItemTask`]), and the executor runs each item — on the calling
//! thread ([`SerialExecutor`]), on a sharded worker pool
//! ([`ThreadPoolExecutor`]), or on whatever future engine (an async daemon
//! worker pool, a fleet dispatcher) implements the trait — and delivers
//! every [`ItemOutput`] **exactly once, in canonical item order**.
//!
//! That delivery contract is what keeps campaign streams byte-deterministic
//! regardless of the executor: each item stages its trace events in a
//! private [`EventBuffer`](margins_trace::EventBuffer), the executor's
//! reorder-merge releases completions in canonical order, and the runner's
//! single [`StreamFinalizer`](margins_trace::StreamFinalizer) seals them
//! into one stream. The runner verifies the contract at run time and
//! surfaces violations as typed [`ExecError`]s instead of corrupting a
//! stream, so any new executor can be validated against the same
//! conformance suite the built-in ones pass.
//!
//! Executor identity (serial vs pool, worker counts, scheduling) is never
//! recorded in the deterministic stream; see
//! [`Campaign::run`](crate::runner::Campaign::run).

use crate::cache::{CampaignCache, SharedCampaignCache};
use crate::profile::PhaseTallies;
use crate::runner::{Campaign, TracedItem};
use crate::search::SearchPriors;
use margins_sim::CoreId;
use margins_trace::Sink;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;

/// Typed executor failure.
///
/// Construction errors ([`ExecError::ZeroThreads`],
/// [`ExecError::TooManyThreads`]) reject nonsensical pool shapes before
/// any work starts; delivery errors ([`ExecError::OutOfOrderDelivery`],
/// [`ExecError::IncompleteDelivery`]) are raised by
/// [`Campaign::run`](crate::runner::Campaign::run) when an executor
/// violates its exactly-once, in-order delivery contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A thread pool cannot have zero workers.
    ZeroThreads,
    /// The requested worker count exceeds the supported maximum.
    TooManyThreads {
        /// Workers requested.
        requested: usize,
        /// Largest supported pool ([`ThreadPoolExecutor::MAX_THREADS`]).
        max: usize,
    },
    /// The executor delivered an item out of canonical order.
    OutOfOrderDelivery {
        /// The canonical index the runner expected next.
        expected: usize,
        /// The index the executor delivered instead.
        delivered: usize,
    },
    /// The executor finished without delivering every item.
    IncompleteDelivery {
        /// Items actually delivered.
        delivered: usize,
        /// Items the campaign scheduled.
        expected: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ZeroThreads => f.write_str("thread pool needs at least one worker"),
            ExecError::TooManyThreads { requested, max } => {
                write!(
                    f,
                    "thread pool of {requested} workers exceeds the maximum of {max}"
                )
            }
            ExecError::OutOfOrderDelivery {
                expected,
                delivered,
            } => write!(
                f,
                "executor delivered item {delivered} while item {expected} was expected \
                 (items must arrive in canonical order)"
            ),
            ExecError::IncompleteDelivery {
                delivered,
                expected,
            } => write!(
                f,
                "executor delivered {delivered} of {expected} scheduled items"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One schedulable unit of a campaign: a (benchmark, core) pair at its
/// canonical position.
///
/// `index` equals the item's position in [`ItemTask::items`] — the order
/// the serial execution visits items (benchmarks-major) and the order the
/// merged trace stream presents them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Canonical position of the item in the campaign.
    pub index: usize,
    /// Index into the campaign's benchmark list.
    pub bench: usize,
    /// The core under characterization.
    pub core: CoreId,
}

/// The unit of work an executor dispatches: the campaign's canonical item
/// list plus everything needed to characterize one item.
///
/// Executors treat this as a black box — call [`ItemTask::run_item`] for
/// each of [`ItemTask::items`] and deliver the outputs in canonical order.
/// The task is `Sync`, so items may run on any thread in any order;
/// determinism comes from the per-item event staging inside `run_item`
/// and from the delivery order, not from where items execute.
pub struct ItemTask<'a> {
    campaign: &'a Campaign,
    items: &'a [WorkItem],
    traced: bool,
    cache: Option<&'a CampaignCache>,
    priors: Option<&'a SearchPriors>,
}

impl<'a> ItemTask<'a> {
    pub(crate) fn new(
        campaign: &'a Campaign,
        items: &'a [WorkItem],
        traced: bool,
        cache: Option<&'a CampaignCache>,
        priors: Option<&'a SearchPriors>,
    ) -> ItemTask<'a> {
        ItemTask {
            campaign,
            items,
            traced,
            cache,
            priors,
        }
    }

    /// The campaign's work items, in canonical order; every item's
    /// [`WorkItem::index`] equals its position in this slice.
    #[must_use]
    pub fn items(&self) -> &'a [WorkItem] {
        self.items
    }

    /// Characterizes one item on the calling thread.
    ///
    /// Pure with respect to scheduling: the output depends only on the
    /// campaign coordinates, never on which thread runs it or what ran
    /// before (every probe boots a pristine simulated board).
    #[must_use]
    pub fn run_item(&self, item: &WorkItem) -> ItemOutput {
        ItemOutput {
            index: item.index,
            item: self
                .campaign
                .run_work_item(item, self.traced, self.cache, self.priors),
        }
    }
}

/// The opaque result of one work item, tagged with its canonical index.
#[derive(Debug)]
pub struct ItemOutput {
    index: usize,
    item: TracedItem,
}

impl ItemOutput {
    /// The canonical index of the item this output belongs to.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn into_parts(self) -> (usize, TracedItem) {
        (self.index, self.item)
    }
}

/// An engine that executes a campaign's work items.
///
/// # Contract
///
/// `run_items` must call `deliver` **exactly once per item of
/// [`ItemTask::items`], in canonical order** (ascending
/// [`WorkItem::index`]). [`Campaign::run`](crate::runner::Campaign::run)
/// verifies both properties and fails with a typed [`ExecError`] on
/// violation, so a misbehaving executor can never corrupt a trace stream
/// or an outcome. Items themselves may execute on any thread in any
/// order; only delivery is ordered.
pub trait CampaignExecutor: Sync {
    /// Executes every item of `task`, delivering outputs in canonical
    /// order.
    ///
    /// # Errors
    ///
    /// Executor-specific failures; the built-in executors never fail here
    /// (invalid pool shapes are rejected at construction).
    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError>;
}

/// Runs every item on the calling thread, in canonical order.
///
/// The reference implementation of the executor contract: delivery order
/// is execution order, so there is nothing to reorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl CampaignExecutor for SerialExecutor {
    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        for item in task.items() {
            deliver(task.run_item(item));
        }
        Ok(())
    }
}

/// Shards items round-robin over a pool of scoped worker threads.
///
/// Workers send completions over a channel as they finish; a reorder
/// buffer on the delivering side holds early completions until their
/// canonical position is reached, so delivery order — and therefore the
/// merged trace stream — is identical to [`SerialExecutor`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPoolExecutor {
    threads: usize,
}

impl ThreadPoolExecutor {
    /// Largest supported pool. Far above any sensible shard count for an
    /// in-process campaign; the bound exists to reject obviously absurd
    /// requests (`--threads 1000000`) with a typed error instead of
    /// exhausting the host spawning threads.
    pub const MAX_THREADS: usize = 512;

    /// A pool of exactly `threads` workers.
    ///
    /// # Errors
    ///
    /// [`ExecError::ZeroThreads`] when `threads == 0`;
    /// [`ExecError::TooManyThreads`] above [`Self::MAX_THREADS`].
    pub fn new(threads: usize) -> Result<ThreadPoolExecutor, ExecError> {
        if threads == 0 {
            return Err(ExecError::ZeroThreads);
        }
        if threads > Self::MAX_THREADS {
            return Err(ExecError::TooManyThreads {
                requested: threads,
                max: Self::MAX_THREADS,
            });
        }
        Ok(ThreadPoolExecutor { threads })
    }

    /// A pool of `threads` workers clamped into the valid range
    /// `1..=MAX_THREADS` (0 means 1), for callers whose width is a tuning
    /// knob rather than user input; user-supplied counts go through
    /// [`ThreadPoolExecutor::new`] so nonsense is rejected, not rounded.
    #[must_use]
    pub fn clamped(threads: usize) -> ThreadPoolExecutor {
        ThreadPoolExecutor {
            threads: threads.clamp(1, Self::MAX_THREADS),
        }
    }

    /// The configured worker count (actual workers are additionally capped
    /// at the item count, so small campaigns never spawn idle threads).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl CampaignExecutor for ThreadPoolExecutor {
    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        let items = task.items();
        let workers = self.threads.min(items.len()).max(1);

        // Shard round-robin, like the serial order dealt across workers:
        // adjacent items land on different workers, which spreads the
        // expensive deep sweeps evenly.
        let mut shards: Vec<Vec<&WorkItem>> = vec![Vec::new(); workers];
        for (i, item) in items.iter().enumerate() {
            shards[i % workers].push(item);
        }

        // A worker panic is re-raised when the scope joins.
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<ItemOutput>();
            for shard in &shards {
                let tx = tx.clone();
                scope.spawn(move || {
                    for item in shard {
                        // A closed receiver means the campaign was
                        // abandoned; nothing useful remains to do with
                        // this item's result.
                        // lint: allow(swallowed-fallibility) — abandoned campaign: the receiver is gone by design
                        let _ = tx.send(task.run_item(item));
                    }
                });
            }
            drop(tx);

            // Reorder buffer: completions arrive in scheduling order;
            // deliver them in canonical item order.
            let mut pending: BTreeMap<usize, ItemOutput> = BTreeMap::new();
            let mut next = 0usize;
            for output in rx {
                pending.insert(output.index(), output);
                while let Some(ready) = pending.remove(&next) {
                    deliver(ready);
                    next += 1;
                }
            }
        });
        Ok(())
    }
}

/// Everything a campaign execution carries besides the executor: sinks,
/// cache, priors, and the profile rollup destination.
///
/// All fields default to "off" ([`ExecContext::new`]); set any subset with
/// struct-update syntax, `ExecContext { sinks, ..ExecContext::new() }`.
#[derive(Default)]
pub struct ExecContext<'s, 'a> {
    /// Sinks receiving the finalized record stream, live and in canonical
    /// order; a [`MetricsRegistry`](margins_trace::MetricsRegistry) is one
    /// more sink. Empty disables tracing entirely: no event is ever
    /// constructed, and the outcome is identical either way.
    pub sinks: &'s mut [&'a mut dyn Sink],
    /// Campaign result cache: every probe is looked up by its full
    /// coordinate key in one snapshot taken before the first probe and
    /// replayed on a hit; misses execute on a pristine board and are
    /// published in one [`SharedCampaignCache::publish`] after the last
    /// delivery.
    pub cache: Option<&'s SharedCampaignCache>,
    /// Warm-start priors; when `None` and a cache is present, priors are
    /// derived from the cache view before the first probe executes, so
    /// warm-started searches stay schedule-independent.
    pub priors: Option<&'s SearchPriors>,
    /// When present, receives the campaign-level profile tallies —
    /// always computed, independent of `config.profile` (which only gates
    /// the trace events).
    pub profile_out: Option<&'s mut PhaseTallies>,
}

impl<'s, 'a> ExecContext<'s, 'a> {
    /// A context with everything off: untraced, uncached, unmetered.
    #[must_use]
    pub fn new() -> ExecContext<'s, 'a> {
        ExecContext::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_construction_validates_thread_counts() {
        assert_eq!(
            ThreadPoolExecutor::new(0).unwrap_err(),
            ExecError::ZeroThreads
        );
        assert_eq!(
            ThreadPoolExecutor::new(ThreadPoolExecutor::MAX_THREADS + 1).unwrap_err(),
            ExecError::TooManyThreads {
                requested: ThreadPoolExecutor::MAX_THREADS + 1,
                max: ThreadPoolExecutor::MAX_THREADS,
            }
        );
        assert_eq!(ThreadPoolExecutor::new(4).expect("valid").threads(), 4);
        assert_eq!(ThreadPoolExecutor::clamped(0).threads(), 1);
        assert_eq!(
            ThreadPoolExecutor::clamped(usize::MAX).threads(),
            ThreadPoolExecutor::MAX_THREADS
        );
    }

    #[test]
    fn errors_render_actionable_messages() {
        assert!(ExecError::ZeroThreads.to_string().contains("at least one"));
        let msg = ExecError::TooManyThreads {
            requested: 1_000_000,
            max: 512,
        }
        .to_string();
        assert!(msg.contains("1000000") && msg.contains("512"), "{msg}");
        let msg = ExecError::OutOfOrderDelivery {
            expected: 2,
            delivered: 5,
        }
        .to_string();
        assert!(msg.contains("item 5") && msg.contains("item 2"), "{msg}");
        let msg = ExecError::IncompleteDelivery {
            delivered: 3,
            expected: 8,
        }
        .to_string();
        assert!(msg.contains("3 of 8"), "{msg}");
    }
}
