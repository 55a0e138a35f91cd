//! What every workload shares: the round record, the layer counters,
//! and the planner/mesh set-up.

use msd_balance::{BackboneShape, BalanceMethod};
use msd_core::metrics::{HistogramSnapshot, MetricsSnapshot, Stage};
use msd_core::planner::{Planner, PlannerConfig, Strategy};
use msd_core::pool::PoolCounters;
use msd_core::schedule::MixSchedule;
use msd_data::SourceSpec;
use msd_mesh::{Axis, ClientPlaceTree, DeviceMesh, DistributeAxis};
use msd_sim::SimRng;

use crate::check::{Ledger, Pulls};
use crate::trace::Tracer;

/// One closed-loop workload. A round builds the program afresh from the
/// workload's generated inputs, runs a fixed number of steps, checks
/// every delivery and tears the program down. Rounds of one seed are
/// identical, so their digests must match.
pub trait Workload {
    /// Runs one round. `tracer` records spans when enabled; failed
    /// pulls go to `pulls`.
    fn round(&mut self, tracer: &mut Tracer, pulls: &mut Pulls) -> Round;

    /// Whether each step runs whole on the generator thread, with no
    /// pipeline working ahead of it, so step *s* costs the same in every
    /// round.
    fn inline_steps(&self) -> bool {
        false
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up time: pipeline construction, actor spawn, listener bind,
    /// stored-loader open.
    pub setup_s: f64,
    /// Wall time of the closed loop (all steps, set-up excluded).
    pub loop_s: f64,
    /// Latency of every step, ms.
    pub step_ms: Vec<f64>,
    /// Deliveries of the round.
    pub ledger: Ledger,
    /// Whether the round ran with tracing on.
    pub traced: bool,
    /// Layer counters of the round.
    pub counters: Counters,
}

/// Counters read from the program's own instrumentation over one or
/// more rounds.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Stage histograms (deltas), indexed by `Stage as usize`.
    pub stages: [HistogramSnapshot; 6],
    /// Buffer-pool counter deltas.
    pub pool: PoolCounters,
    /// Samples the loaders produced.
    pub samples_produced: u64,
    /// Modeled storage I/O of stored loaders, ns.
    pub io_ns: u64,
    /// Plans synthesized by the benchmark itself (inline workloads).
    pub plans: u64,
    /// Σ `PhaseBreakdown::balance_api_ns` over those plans.
    pub balance_ns: u64,
    /// Σ `PhaseBreakdown::cost_api_ns` over those plans.
    pub cost_ns: u64,
    /// Batches handed to trainer clients (every TP replica counts).
    pub client_batches: u64,
    /// Data-server batch frames sent, resends included.
    pub batches_tx: u64,
    /// Largest retained retransmit bytes the server reported.
    pub retained_bytes_max: u64,
    /// Remote-client redials.
    pub reconnects: u64,
    /// `ThreadedPipeline::stats()` samples: Σ ready steps over
    /// constructors.
    pub ready_depth: Vec<f64>,
    /// `stats()` samples: planner mailbox depth.
    pub planner_mailbox: Vec<f64>,
    /// `stats()` samples: samples buffered over all loaders.
    pub loader_buffered: Vec<f64>,
    /// Most threads seen alive in the process.
    pub threads_max: u64,
}

fn add_hist(acc: &mut HistogramSnapshot, d: &HistogramSnapshot) {
    for (a, b) in acc.buckets.iter_mut().zip(d.buckets.iter()) {
        *a += b;
    }
    acc.count += d.count;
    acc.sum += d.sum;
}

impl Counters {
    /// Stage histogram and pool deltas between two metric snapshots.
    pub fn metrics_delta(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for stage in Stage::ALL {
            let d = after
                .stage(stage)
                .histogram
                .since(&before.stage(stage).histogram);
            add_hist(&mut self.stages[stage as usize], &d);
        }
        self.pool = after.pool.since(&before.pool);
    }

    /// Folds another round's counters into these.
    pub fn merge(&mut self, o: &Counters) {
        for (a, b) in self.stages.iter_mut().zip(o.stages.iter()) {
            add_hist(a, b);
        }
        let p = &mut self.pool;
        p.leases += o.pool.leases;
        p.hits += o.pool.hits;
        p.misses += o.pool.misses;
        p.steals += o.pool.steals;
        p.resizes += o.pool.resizes;
        p.bytes_allocated += o.pool.bytes_allocated;
        p.bytes_recycled += o.pool.bytes_recycled;
        self.samples_produced += o.samples_produced;
        self.io_ns += o.io_ns;
        self.plans += o.plans;
        self.balance_ns += o.balance_ns;
        self.cost_ns += o.cost_ns;
        self.client_batches += o.client_batches;
        self.batches_tx += o.batches_tx;
        self.retained_bytes_max = self.retained_bytes_max.max(o.retained_bytes_max);
        self.reconnects += o.reconnects;
        self.ready_depth.extend(&o.ready_depth);
        self.planner_mailbox.extend(&o.planner_mailbox);
        self.loader_buffered.extend(&o.loader_buffered);
        self.threads_max = self.threads_max.max(o.threads_max);
    }

    /// The stage histogram of `stage`.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }
}

/// A seed for one consumer of the workload seed (catalog, rows,
/// loaders, planner), so each stream is independent of the others.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    SimRng::seed(seed).split(label).next()
}

/// The 1×`dp`×1×`tp` trainer mesh (PP × DP × CP × TP).
pub fn mesh(dp: u32, tp: u32) -> DeviceMesh {
    DeviceMesh::pp_dp_cp_tp(1, dp, 1, tp).expect("valid mesh")
}

/// A backbone-balancing planner over `sources` on `mesh`, broadcasting
/// along TP (one fetch per DP bucket).
pub fn planner(
    mesh: &DeviceMesh,
    sources: &[SourceSpec],
    samples_per_step: usize,
    schedule: MixSchedule,
    seed: u64,
) -> Planner {
    Planner::new(
        PlannerConfig {
            axis: DistributeAxis::DP,
            group_size: None,
            microbatches: 2,
            broadcast_axes: vec![Axis::TP],
            samples_per_step,
            schedule,
        },
        Strategy::BackboneBalance {
            method: BalanceMethod::Greedy,
            backbone: BackboneShape {
                layers: 4,
                hidden: 256,
                mlp_ratio: 4.0,
                heads: 4,
                vocab: 8000,
                experts_per_token: 1,
            },
        },
        ClientPlaceTree::from_device_mesh(mesh),
        sources.iter().map(|s| s.id).collect(),
        seed,
    )
}
