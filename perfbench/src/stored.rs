//! `stored_epochs`: the single-thread inline pipeline over stored data.
//!
//! Five coyo-like image sources are materialized as MSDCOL01 files in a
//! `MemStore` once per run (input generation, not set-up). Each round
//! builds a fresh `PipelineCore` and re-reads the files over [`EPOCHS`]
//! epochs, opening fresh stored loaders each epoch. A step is
//! refill (per loader) → summary → `PipelineCore::synthesize` → pop →
//! `PipelineCore::assemble` → `codec::encode_batch_into` →
//! `codec::decode_batch_shared`, all on the calling thread. No actors
//! and no network are involved.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use msd_core::buffer::BufferInfo;
use msd_core::codec::{decode_batch_shared, encode_batch_into, encoded_batch_len};
use msd_core::constructor::{ConstructedBatch, DataConstructor};
use msd_core::loader::{LoaderConfig, SourceLoader};
use msd_core::schedule::MixSchedule;
use msd_core::system::core::PipelineCore;
use msd_data::catalog::coyo700m_like;
use msd_data::gen::materialize_source;
use msd_data::{Sample, SourceSpec};
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;
use msd_storage::MemStore;

use crate::check::{sample_ids, Ledger, Pulls};
use crate::trace::Tracer;
use crate::workload::{mesh, planner, sub_seed, Round, Workload};

/// Rows materialized per source (an epoch reads well under this).
const ROWS_PER_SOURCE: u64 = 1200;
/// Epochs per round; each opens fresh loaders over the same files.
pub const EPOCHS: u64 = 4;
/// Steps per epoch.
pub const STEPS_PER_EPOCH: u64 = 60;
/// Global batch, in samples.
const SAMPLES_PER_STEP: usize = 64;
/// Per-loader refill target before each step.
const REFILL_TARGET: usize = 48;
/// DP buckets of the 1×4×1×2 mesh (one constructor each).
const BUCKETS: u32 = 4;
/// Trainer context length.
const MAX_SEQ_LEN: u64 = 4096;

/// The generated inputs of one seed.
pub struct StoredEpochs {
    sources: Vec<SourceSpec>,
    store: Arc<MemStore>,
    paths: Vec<String>,
    mesh: DeviceMesh,
    planner_seed: u64,
    loader_seed: u64,
}

impl StoredEpochs {
    /// Generates the catalog and materializes its files from `seed`.
    pub fn generate(seed: u64) -> Self {
        let catalog = coyo700m_like(&mut SimRng::seed(sub_seed(seed, "catalog")));
        let store = Arc::new(MemStore::new());
        let mut rows = SimRng::seed(sub_seed(seed, "rows"));
        let paths = catalog
            .sources()
            .iter()
            .map(|spec| {
                materialize_source(store.as_ref(), "coyo", spec, ROWS_PER_SOURCE, &mut rows)
                    .expect("materialize source")
                    .path
            })
            .collect();
        StoredEpochs {
            sources: catalog.sources().to_vec(),
            store,
            paths,
            mesh: mesh(BUCKETS, 2),
            planner_seed: sub_seed(seed, "planner"),
            loader_seed: sub_seed(seed, "loader"),
        }
    }

    fn open_loaders(&self) -> Vec<SourceLoader> {
        self.sources
            .iter()
            .zip(&self.paths)
            .enumerate()
            .map(|(i, (spec, path))| {
                SourceLoader::stored(
                    spec.clone(),
                    LoaderConfig::solo(i as u32),
                    self.store.clone(),
                    path.clone(),
                    self.loader_seed,
                )
            })
            .collect()
    }
}

/// What one step hands to the checks.
struct StepOutput {
    /// Every sample id the plan directed the loaders to pop, sorted.
    planned: Vec<u64>,
    batches: Vec<ConstructedBatch>,
    decoded: Vec<Result<ConstructedBatch, String>>,
}

impl Workload for StoredEpochs {
    fn round(&mut self, tracer: &mut Tracer, pulls: &mut Pulls) -> Round {
        let mut round = Round {
            traced: tracer.enabled(),
            ..Round::default()
        };
        let before = msd_core::metrics::snapshot();
        let t0 = Instant::now();
        let mut core = PipelineCore::new(planner(
            &self.mesh,
            &self.sources,
            SAMPLES_PER_STEP,
            MixSchedule::uniform(self.sources.len()),
            self.planner_seed,
        ));
        let ctors: Vec<DataConstructor> = (0..BUCKETS)
            .map(|_| DataConstructor::new(self.mesh.clone(), MAX_SEQ_LEN))
            .collect();
        round.setup_s += t0.elapsed().as_secs_f64();

        'epochs: for epoch in 0..EPOCHS {
            let t_open = Instant::now();
            let mut loaders = self.open_loaders();
            round.setup_s += t_open.elapsed().as_secs_f64();
            round.ledger.new_epoch();

            let t_loop = Instant::now();
            for k in 0..STEPS_PER_EPOCH {
                let s = epoch * STEPS_PER_EPOCH + k;
                let t_step = Instant::now();
                let root = tracer.begin("step", s);
                let out = step(s, tracer, &mut core, &mut loaders, &ctors, &mut round);
                tracer.end(root);
                round.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(out) => check_step(s, &out, &mut round.ledger, pulls),
                    Err(msg) => {
                        pulls.record(Err(msg));
                        round.loop_s += t_loop.elapsed().as_secs_f64();
                        break 'epochs;
                    }
                }
            }
            round.loop_s += t_loop.elapsed().as_secs_f64();
            for l in &loaders {
                round.counters.samples_produced += l.samples_produced();
                round.counters.io_ns += l.io_ns_total;
            }
        }
        round
            .counters
            .metrics_delta(&before, &msd_core::metrics::snapshot());
        round
    }

    fn inline_steps(&self) -> bool {
        true
    }
}

/// One inline pipeline step, each layer call in its own span.
fn step(
    s: u64,
    tracer: &mut Tracer,
    core: &mut PipelineCore,
    loaders: &mut [SourceLoader],
    ctors: &[DataConstructor],
    round: &mut Round,
) -> Result<StepOutput, String> {
    for l in loaders.iter_mut() {
        tracer
            .span("loader.refill", s, || l.refill(REFILL_TARGET))
            .map_err(|e| format!("step {s}: refill of loader {} failed: {e}", l.id()))?;
    }
    let info = tracer.span("loader.summary", s, || {
        BufferInfo::new(loaders.iter().map(SourceLoader::summary).collect())
    });
    let outcome = tracer
        .span("planner.synthesize", s, || core.synthesize(&info))
        .map_err(|e| format!("step {s}: plan synthesis failed: {e:?}"))?;
    round.counters.plans += 1;
    round.counters.balance_ns += outcome.phases.balance_api_ns;
    round.counters.cost_ns += outcome.phases.cost_api_ns;
    let plan = outcome.plan;
    let mut planned: Vec<u64> = plan.directives.values().flatten().copied().collect();
    planned.sort_unstable();
    let popped: HashMap<u64, Sample> = tracer.span("loader.pop", s, || {
        let mut popped = HashMap::new();
        for l in loaders.iter_mut() {
            if let Some(ids) = plan.directives.get(&l.id()) {
                popped.extend(l.pop(ids).into_iter().map(|x| (x.meta.sample_id, x)));
            }
        }
        popped
    });
    let batches = tracer.span("constructor.assemble", s, || {
        PipelineCore::assemble(ctors, &plan, &popped)
    });
    let mut decoded = Vec::with_capacity(batches.len());
    for b in &batches {
        let frame: Bytes = tracer.span("codec.encode", s, || {
            let mut lease = msd_core::pool::global().lease(encoded_batch_len(b));
            encode_batch_into(b, &mut lease);
            lease.freeze()
        });
        let back = tracer.span("codec.decode", s, || decode_batch_shared(&frame));
        decoded.push(back.map_err(|e| format!("step {s} bucket {}: decode failed: {e}", b.bucket)));
    }
    Ok(StepOutput {
        planned,
        batches,
        decoded,
    })
}

/// Checks one step's batches: the step must deliver one batch per DP
/// bucket and exactly the samples the plan directed, and each batch must
/// survive encode→decode unchanged and pass the ledger.
fn check_step(s: u64, out: &StepOutput, ledger: &mut Ledger, pulls: &mut Pulls) {
    let mut buckets: Vec<u32> = out.batches.iter().map(|b| b.bucket).collect();
    buckets.sort_unstable();
    if buckets != (0..BUCKETS).collect::<Vec<u32>>() {
        pulls.fail(format!(
            "step {s}: delivered buckets {buckets:?} instead of 0..{BUCKETS}"
        ));
    }
    let mut delivered: Vec<u64> = out.batches.iter().flat_map(sample_ids).collect();
    delivered.sort_unstable();
    if delivered != out.planned {
        pulls.fail(format!(
            "step {s}: delivered {} sample ids where the plan directed {}, not the same set",
            delivered.len(),
            out.planned.len()
        ));
    }
    let mut order: Vec<usize> = (0..out.batches.len()).collect();
    order.sort_by_key(|&i| out.batches[i].bucket);
    for i in order {
        let batch = &out.batches[i];
        let roundtrip = match &out.decoded[i] {
            Ok(back) if back == batch => Ok(()),
            Ok(_) => Err(format!(
                "step {s} bucket {}: batch changed across encode→decode",
                batch.bucket
            )),
            Err(msg) => Err(msg.clone()),
        };
        let delivered = ledger.deliver(s, batch);
        pulls.record(roundtrip.and(delivered));
    }
    ledger.end_step();
}
