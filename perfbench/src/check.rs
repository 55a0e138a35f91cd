//! Output checks and delivery accounting shared by every workload.
//!
//! Every delivered batch passes through a [`Ledger`]: it rejects a
//! sample id seen before in the same epoch (two buckets or two steps),
//! folds `(step, bucket, sample id, payload length)` into the round's
//! digest, and accumulates the delivered tokens, samples, encoded bytes
//! and per-step attention imbalance. A failed check fails the pull that
//! delivered the batch.

use std::collections::HashSet;

use msd_core::codec::encoded_batch_len;
use msd_core::constructor::ConstructedBatch;

use crate::stats::Digest;

/// Pull accounting of a whole run: attempted and failed pulls plus the
/// first few failure messages.
#[derive(Debug, Default)]
pub struct Pulls {
    /// Pulls attempted.
    pub attempted: u64,
    /// Pulls that returned nothing, arrived out of order or duplicated,
    /// or failed an output check.
    pub failed: u64,
    /// The first failure messages (for the report).
    pub messages: Vec<String>,
}

impl Pulls {
    /// Records one pull's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Marks an already-counted pull (or the run) as failed.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// Delivery ledger of one round.
#[derive(Debug, Default)]
pub struct Ledger {
    seen: HashSet<u64>,
    digest: Digest,
    step_costs: Vec<f64>,
    /// Real tokens delivered (each DP bucket's batch counted once).
    pub tokens: u64,
    /// Unique samples delivered.
    pub samples: u64,
    /// Encoded (wire) size of the delivered batches, bytes.
    pub encoded_bytes: u64,
    /// Sum over steps of max/mean bucket attention cost.
    pub imbalance_sum: f64,
    /// Steps whose imbalance entered `imbalance_sum`.
    pub imbalance_steps: u64,
}

/// Sample ids of a batch, in delivery order.
pub fn sample_ids(batch: &ConstructedBatch) -> Vec<u64> {
    batch
        .microbatches
        .iter()
        .flat_map(|mb| mb.payloads.iter().map(|(id, _)| *id))
        .collect()
}

/// Quadratic attention cost of a batch: Σ segment-tokens².
fn attention_cost(batch: &ConstructedBatch) -> f64 {
    batch
        .microbatches
        .iter()
        .flat_map(|mb| &mb.sequences)
        .flat_map(|seq| &seq.segments)
        .map(|seg| (seg.tokens as f64).powi(2))
        .sum()
}

impl Ledger {
    /// Starts a new epoch: sample ids may be delivered again.
    pub fn new_epoch(&mut self) {
        self.seen.clear();
    }

    /// Accounts one DP bucket's batch of `step` (call once per bucket,
    /// in bucket order). Fails on a sample id already delivered this
    /// epoch or on an empty batch.
    pub fn deliver(&mut self, step: u64, batch: &ConstructedBatch) -> Result<(), String> {
        self.digest.push(step);
        self.digest.push(u64::from(batch.bucket));
        let mut tokens = 0u64;
        let mut samples = 0u64;
        let mut dup = None;
        for mb in &batch.microbatches {
            tokens += mb.tokens();
            for (id, payload) in &mb.payloads {
                self.digest.push(*id);
                self.digest.push(payload.len() as u64);
                samples += 1;
                if !self.seen.insert(*id) && dup.is_none() {
                    dup = Some(*id);
                }
            }
        }
        self.tokens += tokens;
        self.samples += samples;
        self.encoded_bytes += encoded_batch_len(batch) as u64;
        self.step_costs.push(attention_cost(batch));
        if let Some(id) = dup {
            return Err(format!(
                "step {step} bucket {}: sample {id:#x} delivered twice",
                batch.bucket
            ));
        }
        if samples == 0 || tokens == 0 {
            return Err(format!("step {step} bucket {}: empty batch", batch.bucket));
        }
        Ok(())
    }

    /// Closes a step: folds max/mean of its buckets' attention costs
    /// into the imbalance sum.
    pub fn end_step(&mut self) {
        let n = self.step_costs.len() as f64;
        let max = self.step_costs.iter().copied().fold(0.0, f64::max);
        let mean = self.step_costs.iter().sum::<f64>() / n;
        if mean > 0.0 {
            self.imbalance_sum += max / mean;
            self.imbalance_steps += 1;
        }
        self.step_costs.clear();
    }

    /// The round's delivery digest.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}
