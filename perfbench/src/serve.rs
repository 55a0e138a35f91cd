//! `serve_mix` and `serve_tcp`: the actor runtime serving trainer
//! clients, driven closed-loop by the single generator thread.
//!
//! Each round spawns a fresh `ThreadedPipeline`, opens a serve session
//! of a fixed number of steps and pulls every client in turn: step
//! *s + 1* is asked for only after every client holds step *s*.
//!
//! - `serve_mix`: `ThreadedPipeline::serve` in-process over 16
//!   navit-like text/image/video sources, 8 local `ServeClient`s (one
//!   per rank of the 1×4×1×2 mesh), and a curriculum
//!   `MixSchedule::Warmup` that moves weight from one half of the
//!   sources to the other over the round.
//! - `serve_tcp`: `serve_distributed` over `TcpTransport` on 127.0.0.1,
//!   2 `RemoteClient::over_tcp` connections (one per DP bucket of a
//!   1×2×1×1 mesh), 4 text-only sources and a static mixture.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use msd_core::constructor::{ConstructedBatch, DataConstructor};
use msd_core::loader::LoaderConfig;
use msd_core::schedule::MixSchedule;
use msd_core::system::runtime::{ServeClient, ServeOptions, ServeSession, ThreadedPipeline};
use msd_core::system::server::{DataServerHandle, RemoteClient, RemotePlacement};
use msd_core::system::tcp::TcpTransport;
use msd_data::catalog::{navit_sized, text_only};
use msd_data::{LengthDist, Modality, SourceId, SourceSpec};
use msd_mesh::DeviceMesh;
use msd_sim::SimRng;

use crate::check::{sample_ids, Pulls};
use crate::stats::thread_count;
use crate::trace::Tracer;
use crate::workload::{mesh, planner, sub_seed, Round, Workload};

/// Bounded-queue depth of the serve session (and the remote credit
/// window).
const QUEUE_DEPTH: u64 = 4;
/// Per-pull ask timeout inside the clients (they retry until the step
/// arrives).
const PULL_TIMEOUT: Duration = Duration::from_millis(500);
/// Traced rounds sample `ThreadedPipeline::stats()` every this many
/// steps, between steps.
const STATS_EVERY: u64 = 8;

/// Which serving path a [`Serve`] workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// In-process `ThreadedPipeline::serve` with local clients.
    Local,
    /// `serve_distributed` over TCP with remote clients.
    Tcp,
}

/// The generated inputs of one serve workload.
pub struct Serve {
    path: Path,
    sources: Vec<SourceSpec>,
    schedule: MixSchedule,
    mesh: DeviceMesh,
    /// Constructors (one per DP bucket).
    buckets: u32,
    clients: u32,
    /// Steps per round.
    steps: u64,
    samples_per_step: usize,
    refill_target: usize,
    planner_seed: u64,
    loader_seed: u64,
}

/// Modalities of the `serve_mix` sources. Both halves hold images, text
/// and video; the second half is video-heavier, so the curriculum shifts
/// the modality mix.
const MIX_LAYOUT: [Modality; 16] = {
    use Modality::{Image, Text, Video};
    [
        Image, Image, Image, Image, Text, Text, Text, Video, //
        Image, Image, Image, Image, Text, Text, Video, Video,
    ]
};
/// Size of the `navit_sized` catalog the `serve_mix` sources are picked
/// from; at its modality odds it holds ~20 video sources for the 3 needed.
const NAVIT_POOL: u32 = 256;

/// The `serve_mix` sources: `catalog::navit_sized` sources (transform
/// costs spanning ~3 orders of magnitude), taken in catalog order to
/// fill [`MIX_LAYOUT`], renumbered, at equal weight (the schedule sets
/// the mixture).
fn mix_sources(rng: &mut SimRng) -> Vec<SourceSpec> {
    let catalog = navit_sized(rng, NAVIT_POOL);
    let mut taken = vec![false; catalog.len()];
    MIX_LAYOUT
        .iter()
        .enumerate()
        .map(|(i, &modality)| {
            let k = (0..catalog.len())
                .find(|&k| !taken[k] && catalog.sources()[k].modality == modality)
                .expect("the navit pool holds enough sources of each modality");
            taken[k] = true;
            SourceSpec {
                id: SourceId(i as u32),
                weight: 1.0,
                ..catalog.sources()[k].clone()
            }
        })
        .collect()
}

/// A trainer client of either serving path.
enum Client {
    Local(ServeClient),
    Remote(RemoteClient),
}

impl Client {
    fn next(&mut self) -> Option<(u64, Arc<ConstructedBatch>)> {
        match self {
            Client::Local(c) => c.next(),
            Client::Remote(c) => c.next(),
        }
    }
}

/// A live serve session of one round.
struct Session {
    pipeline: ThreadedPipeline,
    session: ServeSession,
    server: Option<DataServerHandle>,
    clients: Vec<Client>,
}

impl Serve {
    /// `serve_mix` inputs for `seed`.
    pub fn mix(seed: u64) -> Self {
        let sources = mix_sources(&mut SimRng::seed(sub_seed(seed, "catalog")));
        let half = sources.len() / 2;
        let first: Vec<f64> = (0..sources.len())
            .map(|i| if i < half { 1.0 } else { 0.05 })
            .collect();
        let second: Vec<f64> = first.iter().rev().copied().collect();
        let steps = 240;
        Serve {
            path: Path::Local,
            sources,
            schedule: MixSchedule::Warmup {
                from: first,
                to: second,
                steps,
            },
            mesh: mesh(4, 2),
            buckets: 4,
            clients: 8,
            steps,
            samples_per_step: 64,
            refill_target: 24,
            planner_seed: sub_seed(seed, "planner"),
            loader_seed: sub_seed(seed, "loader"),
        }
    }

    /// `serve_tcp` inputs for `seed`.
    pub fn tcp(seed: u64) -> Self {
        // `text_only` draws each source's median length from 400–1600
        // tokens, so with 4 sources the mean tokens per sample alone
        // would spread ~25% across seeds. One length distribution for
        // all keeps `tokens_per_s` comparable from seed to seed.
        let sources: Vec<SourceSpec> = text_only(&mut SimRng::seed(sub_seed(seed, "catalog")), 4)
            .sources()
            .iter()
            .map(|spec| SourceSpec {
                text_dist: LengthDist::lognormal_median(1000.0, 1.0).clamped(16.0, 16384.0),
                ..spec.clone()
            })
            .collect();
        Serve {
            path: Path::Tcp,
            schedule: MixSchedule::uniform(sources.len()),
            sources,
            mesh: mesh(2, 1),
            buckets: 2,
            clients: 2,
            steps: 240,
            samples_per_step: 32,
            refill_target: 24,
            planner_seed: sub_seed(seed, "planner"),
            loader_seed: sub_seed(seed, "loader"),
        }
    }

    fn pipeline(&self) -> ThreadedPipeline {
        let sources = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), LoaderConfig::solo(i as u32)))
            .collect();
        let ctors = (0..self.buckets)
            .map(|_| DataConstructor::new(self.mesh.clone(), 4096))
            .collect();
        ThreadedPipeline::new(
            sources,
            planner(
                &self.mesh,
                &self.sources,
                self.samples_per_step,
                self.schedule.clone(),
                self.planner_seed,
            ),
            ctors,
            self.loader_seed,
        )
    }

    fn options(&self) -> ServeOptions {
        ServeOptions {
            clients: self.clients,
            steps: self.steps,
            refill_target: self.refill_target,
            queue_depth: QUEUE_DEPTH,
            prefetch: true,
            pull_timeout: PULL_TIMEOUT,
            ..ServeOptions::default()
        }
    }

    /// The DP bucket client `c` consumes. Local clients pull from
    /// constructor `c % buckets`; remote client `c` sits on rank `c`.
    fn bucket_of(&self, c: u32) -> u32 {
        c % self.buckets
    }

    /// Set-up: pipeline construction and actor spawn, the serve
    /// session, and for TCP the listener bind plus the remote clients.
    /// Remote clients dial lazily inside their first `next`, so the
    /// first dial is part of step 0.
    fn open(&self) -> Session {
        let mut pipeline = self.pipeline();
        match self.path {
            Path::Local => {
                let mut session = pipeline.serve(self.options());
                let clients = session
                    .take_clients()
                    .into_iter()
                    .map(Client::Local)
                    .collect();
                Session {
                    pipeline,
                    session,
                    server: None,
                    clients,
                }
            }
            Path::Tcp => {
                let transport = Arc::new(TcpTransport::new().expect("bind tcp transport"));
                let placements: Vec<RemotePlacement> = (0..self.clients)
                    .map(|c| RemotePlacement { client: c, rank: c })
                    .collect();
                let (session, handle) =
                    pipeline.serve_distributed(self.options(), transport, &placements);
                // Known defect (README.md): the accept loop of
                // `serve_tcp` exits for good if its first poll finds the
                // server actor's thread not yet started, and every dial
                // is then refused. Waiting for one status reply proves
                // the actor runs before the listener opens.
                handle
                    .status()
                    .expect("data server answers a status request");
                let addr: SocketAddr = handle.serve_tcp("127.0.0.1:0").expect("bind listener");
                let clients = placements
                    .iter()
                    .map(|p| {
                        Client::Remote(RemoteClient::over_tcp(
                            addr,
                            p.client,
                            p.rank,
                            self.steps,
                            PULL_TIMEOUT,
                            QUEUE_DEPTH as u32,
                        ))
                    })
                    .collect();
                Session {
                    pipeline,
                    session,
                    server: Some(handle),
                    clients,
                }
            }
        }
    }

    /// Teardown: joins the session and shuts the pipeline down, reading
    /// the loader and server counters on the way.
    fn close(&self, live: Session, round: &mut Round, pulls: &mut Pulls) {
        let Session {
            pipeline,
            session,
            server,
            clients,
        } = live;
        for c in &clients {
            if let Client::Remote(rc) = c {
                round.counters.reconnects += rc.reconnects();
            }
        }
        drop(clients);
        let served = session.join();
        if served != self.steps {
            pulls.fail(format!(
                "serve driver broadcast {served} of {} steps",
                self.steps
            ));
        }
        let stats = pipeline.stats();
        round.counters.samples_produced = stats
            .loaders
            .iter()
            .map(|l| l.health.samples_produced)
            .sum();
        if let Some(status) = server.as_ref().and_then(DataServerHandle::status) {
            round.counters.batches_tx = status.batches_tx;
            round.counters.retained_bytes_max =
                round.counters.retained_bytes_max.max(status.retained_bytes);
        }
        drop(server);
        pipeline.shutdown();
    }
}

impl Workload for Serve {
    fn round(&mut self, tracer: &mut Tracer, pulls: &mut Pulls) -> Round {
        let mut round = Round {
            traced: tracer.enabled(),
            ..Round::default()
        };
        let before = msd_core::metrics::snapshot();
        let t0 = Instant::now();
        let mut live = self.open();
        round.setup_s = t0.elapsed().as_secs_f64();

        let t_loop = Instant::now();
        let n = self.clients as usize;
        let mut held: Vec<Option<(u64, Arc<ConstructedBatch>)>> = vec![None; n];
        'steps: for s in 0..self.steps {
            let t_step = Instant::now();
            let root = tracer.begin("step", s);
            for (c, slot) in live.clients.iter_mut().zip(held.iter_mut()) {
                *slot = tracer.span("client.next", s, || c.next());
            }
            tracer.end(root);
            round.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);

            // Checks, outside the step's latency. The first client of a
            // bucket is its primary: its batch is accounted once; the
            // bucket's TP replicas must hold the same sample ids.
            let mut primary: Vec<Option<(usize, Vec<u64>)>> = vec![None; self.buckets as usize];
            let mut ended = false;
            for (c, got) in held.iter_mut().enumerate() {
                let bucket = self.bucket_of(c as u32);
                let outcome = match got.take() {
                    None => {
                        ended = true;
                        Err(format!("client {c}: stream ended before step {s}"))
                    }
                    Some((step, _)) if step != s => Err(format!(
                        "client {c}: got step {step} where step {s} was due"
                    )),
                    Some((_, batch)) if batch.bucket != bucket => Err(format!(
                        "client {c} step {s}: batch of bucket {} instead of {bucket}",
                        batch.bucket
                    )),
                    Some((_, batch)) => {
                        round.counters.client_batches += 1;
                        let ids = sample_ids(&batch);
                        match &primary[bucket as usize] {
                            Some((first, first_ids)) if *first_ids != ids => Err(format!(
                                "step {s}: TP replicas {first} and {c} of bucket {bucket} got different samples"
                            )),
                            Some(_) => Ok(()),
                            None => {
                                primary[bucket as usize] = Some((c, ids));
                                round.ledger.deliver(s, &batch)
                            }
                        }
                    }
                };
                pulls.record(outcome);
            }
            round.ledger.end_step();
            if ended {
                break 'steps;
            }
            if round.traced && s % STATS_EVERY == 0 {
                sample_stats(&live, &mut round);
            }
        }
        // Clean end of stream: every client sees `None` past its last
        // step (remote clients close their connection here).
        for c in &mut live.clients {
            if c.next().is_some() {
                pulls.fail("client received a batch past the session's last step".into());
            }
        }
        round.loop_s = t_loop.elapsed().as_secs_f64();

        self.close(live, &mut round, pulls);
        round
            .counters
            .metrics_delta(&before, &msd_core::metrics::snapshot());
        round
    }
}

/// Samples runtime queue state (traced rounds only).
fn sample_stats(live: &Session, round: &mut Round) {
    let stats = live.pipeline.stats();
    let c = &mut round.counters;
    c.ready_depth.push(
        stats
            .constructors
            .iter()
            .map(|k| k.ready_steps.len() as f64)
            .sum(),
    );
    c.planner_mailbox.push(stats.planner_mailbox_depth as f64);
    c.loader_buffered.push(stats.total_buffered() as f64);
    c.threads_max = c.threads_max.max(thread_count());
    if let Some(status) = live.server.as_ref().and_then(DataServerHandle::status) {
        c.retained_bytes_max = c.retained_bytes_max.max(status.retained_bytes);
    }
}
