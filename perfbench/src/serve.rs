//! `serve_mixed`: open-loop wall-clock load against `cdma_serve::Server`.
//!
//! Two tenants share a server with `workers = nproc − 1` (the pacer keeps
//! its own core): a weighted trainer tenant submitting ZVC compress jobs
//! of 4 KB and 64 KB tensors (writes), and a prefetch tenant submitting
//! decompress jobs over 4 KB windows compressed during set-up (reads).
//! Arrivals come from `Schedule::generate`; every latency is timed from
//! the request's due time, so a stalled pacer shows as latency.

use std::time::{Duration, Instant};

use cdma_compress::windowed::{self, WindowedStream};
use cdma_compress::{Algorithm, Compressor, Zvc};
use cdma_serve::{
    fill_activations, run_virtual, Arrival, Completion, JobKind, LoadReport, Request, Schedule,
    Server, ServerConfig, ServiceModel, TenantId, TenantLoad, TenantSpec,
};

use crate::report::{Metrics, Report, SERVE_RATES};
use crate::stats::{median, percentile_sorted, sort, Outcomes};
use crate::trace::Tracer;
use crate::{timed_setup, write_result, Args};

/// Trainer tensor mix: 4 KB and 64 KB (f32 words, weight by count). An
/// assumption, not taken from a measurement: one 64 KB tensor in ten,
/// so the large tensors carry about two thirds of the trainer's bytes.
const TRAINER_SIZES: [(usize, f64); 2] = [(1024, 0.9), (16384, 0.1)];
/// Trainer weight and share of the offered rate, as in the nominal phase
/// of the repository's serving experiment (`trainer` at weight 3 and
/// 0.25 of capacity beside a second tenant at 0.15).
const TRAINER_WEIGHT: f64 = 3.0;
const TRAINER_SHARE: f64 = 0.25 / (0.25 + 0.15);
/// Words per prefetch window (4 KB).
const WINDOW_WORDS: usize = 1024;
/// Zero fraction of generated activations (the paper's ~60 % average).
const ZERO_DENSITY: f64 = 0.6;
/// Distinct payloads per size (an assumption); requests cycle through
/// them.
const POOL: usize = 256;
const SETUP_REPS: usize = 3;
/// How often the spinning pacer drains completions.
const DRAIN_EVERY_S: f64 = 10e-6;
/// Per fixed rate: share of the run it takes and sub-phases it is
/// split into; tail figures are the median over sub-phases.
const PHASE_PLAN: [(f64, usize); 2] = [(0.15, 8), (0.3, 16)];
/// Horizon of each seeded virtual-time replay behind `sim_host_ms` and
/// `modelled_step_ms` (one replay per closed-loop window).
const VIRTUAL_HORIZON_S: f64 = 1.0;
/// Closed-loop clients (requests kept in flight) for the timed figures.
/// An assumption: sixteen callers, each waiting for its reply.
const CLIENTS: usize = 16;
/// Closed-loop windows, each `CLOSED_SHARE / CLOSED_WINDOWS` of the run;
/// the latency figures are medians over windows.
const CLOSED_WINDOWS: usize = 20;
const CLOSED_SHARE: f64 = 0.8;
/// Latency samples reserved per closed-loop window (pages are touched
/// only as samples arrive).
const CLOSED_LATENCY_ROOM: usize = 1 << 21;
/// Rate of the schedule a closed-loop window draws its request mix from
/// (pacing ignores the arrival times, and the window cycles the
/// schedule as often as it needs; at most `CLIENTS` of its slots are in
/// use at a time).
const CLOSED_STREAM_RATE: f64 = 50_000.0;

/// Set-up state: payload pools and the running server.
struct Bench {
    server: Server,
    /// Trainer payloads, indexed by size class then pool slot.
    words: [Vec<Vec<f32>>; 2],
    /// The ZVC windowed stream (bytes, offsets) of each trainer payload,
    /// checked at set-up to decode back to it.
    expected: [Vec<(Vec<u8>, Vec<u32>)>; 2],
    /// Prefetch originals and their ZVC windows.
    prefetch: Vec<(Vec<f32>, Vec<u8>)>,
    workers: usize,
}

/// The two tenants at total offered `rate`.
pub fn loads(rate: f64) -> Vec<TenantLoad> {
    vec![
        TenantLoad::new(
            TenantSpec::new("trainer").weight(TRAINER_WEIGHT),
            rate * TRAINER_SHARE,
        )
        .size_mix(TRAINER_SIZES.to_vec())
        .zero_density(ZERO_DENSITY),
        TenantLoad::new(TenantSpec::new("prefetch"), rate * (1.0 - TRAINER_SHARE))
            .size_mix(vec![(WINDOW_WORDS, 1.0)])
            .zero_density(ZERO_DENSITY),
    ]
}

/// Trainer payloads by size class, and prefetch originals with their
/// ZVC windows.
type Payloads = ([Vec<Vec<f32>>; 2], Vec<(Vec<f32>, Vec<u8>)>);

/// Payload pools generated from `seed`.
pub fn payloads(seed: u64) -> Payloads {
    let gen = |salt: u64, i: usize, n: usize| {
        let mut v = vec![0.0f32; n];
        fill_activations(
            seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
            ZERO_DENSITY,
            &mut v,
        );
        v
    };
    let words = [
        (0..POOL).map(|i| gen(1, i, TRAINER_SIZES[0].0)).collect(),
        (0..POOL / 8)
            .map(|i| gen(2, i, TRAINER_SIZES[1].0))
            .collect(),
    ];
    let prefetch = (0..POOL)
        .map(|i| {
            let v = gen(3, i, WINDOW_WORDS);
            let mut bytes = Vec::new();
            Zvc::new().compress_append(&v, &mut bytes);
            (v, bytes)
        })
        .collect();
    (words, prefetch)
}

/// The ZVC windowed stream of `words` as the server lays it out (4 KB
/// windows behind an offset table), checked to decode back to `words`.
fn zvc_windows(words: &[f32]) -> (Vec<u8>, Vec<u32>) {
    let zvc = Zvc::new();
    let (mut bytes, mut offsets) = (Vec::new(), Vec::new());
    windowed::append_windows(&zvc, words, WINDOW_WORDS, &mut bytes, &mut offsets);
    let mut decoded = Vec::with_capacity(words.len());
    for (w, win) in offsets.windows(2).enumerate() {
        let n = (words.len() - w * WINDOW_WORDS).min(WINDOW_WORDS);
        zvc.decompress_append(&bytes[win[0] as usize..win[1] as usize], n, &mut decoded)
            .expect("ZVC decodes its own windows");
    }
    assert!(
        bit_identical(&decoded, words),
        "ZVC round trip of a serve payload"
    );
    (bytes, offsets)
}

/// The served configuration: ZVC, and a staging pool of 64 engine
/// buffers (Section V-C: 70 KB each), so a millisecond stall of the
/// host at 20k req/s queues instead of shedding.
fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        algorithm: Algorithm::Zvc,
        workers,
        staging_bytes: 64 * 70 * 1024,
        ..ServerConfig::default()
    }
}

/// Starts the server with its workers pinned to every CPU the process
/// may use but the first, and pins the calling thread (the pacer) to
/// that first CPU. Returns the server and whether the pinning took: it
/// needs Linux and at least two usable CPUs.
fn start_pinned(config: ServerConfig, specs: Vec<TenantSpec>) -> (Server, bool) {
    #[cfg(target_os = "linux")]
    {
        type Mask = [u64; 16];
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        const SIZE: usize = std::mem::size_of::<Mask>();
        // Read once: after the first call the calling thread holds one CPU.
        static ALLOWED: std::sync::OnceLock<Option<Mask>> = std::sync::OnceLock::new();
        let allowed = *ALLOWED.get_or_init(|| {
            let mut mask: Mask = [0; 16];
            // SAFETY: `mask` is a writable cpu_set_t-sized bitmap of SIZE
            // bytes, and pid 0 names the calling thread.
            let ok = unsafe { sched_getaffinity(0, SIZE, mask.as_mut_ptr()) } == 0;
            ok.then_some(mask)
        });
        let set = |mask: &Mask| {
            // SAFETY: `mask` is a live cpu_set_t-sized bitmap of SIZE
            // bytes, and pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, SIZE, mask.as_ptr()) == 0 }
        };
        let cpus = allowed.map_or(0, |m| m.iter().map(|w| w.count_ones()).sum::<u32>());
        if let (Some(mut workers), true) = (allowed, cpus >= 2) {
            let word = workers
                .iter()
                .position(|&w| w != 0)
                .expect("a CPU is allowed");
            let mut pacer: Mask = [0; 16];
            pacer[word] = 1 << workers[word].trailing_zeros();
            workers[word] &= !pacer[word];
            // Worker threads inherit the mask of the thread that spawns them.
            if set(&workers) {
                let server = Server::start(config, specs);
                return (server, set(&pacer));
            }
        }
    }
    (Server::start(config, specs), false)
}

/// Set-up: payload pools and a running server with `workers` workers.
fn start(seed: u64, workers: usize) -> Bench {
    let config = server_config(workers);
    let specs = loads(1.0).into_iter().map(|l| l.spec).collect();
    let (words, prefetch) = payloads(seed);
    let expected = [0, 1].map(|class| words[class].iter().map(|v| zvc_windows(v)).collect());
    // Left to the scheduler, the spinning pacer and a worker share one
    // CPU in some runs and not in others, and the two placements measure
    // differently: shared, the worker runs only when the pacer's time
    // slice ends, which on a 2-vCPU host cuts throughput by more than
    // half and puts p99 near 4 ms instead of tens of microseconds.
    // Pinning fixes the placement the workload specifies: the pacer on a
    // core of its own.
    let (server, pinned) = start_pinned(config, specs);
    if !pinned {
        eprintln!("warning: pacer and workers not pinned apart; serve figures may be bimodal");
    }
    let mut bench = Bench {
        server,
        words,
        expected,
        prefetch,
        workers,
    };
    // Warm-up: a short open-loop burst wakes the workers and fills the
    // server's buffer pools.
    let warm = phase(
        &mut bench,
        5_000.0,
        0.2,
        seed ^ 0x5EED,
        &mut Tracer::new(false),
    );
    assert_eq!(warm.outcomes.failures(), 0, "warm-up burst failed");
    bench
}

impl Bench {
    /// The job an arrival asks for: its kind, and the size class and
    /// pool slot of its payload.
    fn pick(&self, a: &Arrival) -> (JobKind, usize, usize) {
        if a.tenant == 0 {
            let class = usize::from(a.elements != TRAINER_SIZES[0].0);
            let slot = (a.fill_seed % self.words[class].len() as u64) as usize;
            (JobKind::Compress, class, slot)
        } else {
            let slot = (a.fill_seed % self.prefetch.len() as u64) as usize;
            (JobKind::Decompress, 0, slot)
        }
    }
}

/// Bookkeeping for one submitted request.
#[derive(Clone, Copy)]
struct Meta {
    due_s: f64,
    submit_s: f64,
    submitted_s: f64,
    kind: JobKind,
    slot: usize,
    class: usize,
}

/// What one phase measured (times in seconds on the server clock unless
/// noted). The per-stage samples are kept in traced runs only.
#[derive(Default)]
struct Phase {
    latency: Vec<f64>,
    submit_ns: Vec<f64>,
    pacer_lag: Vec<f64>,
    in_server: Vec<f64>,
    drain_lag: Vec<f64>,
    drains: u64,
    outcomes: Outcomes,
    bytes: u64,
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Keeps a request's input buffers for reuse (a compress request
/// carries only words, a decompress request only bytes).
fn recycle(words: &mut Vec<Vec<f32>>, bytes: &mut Vec<Vec<u8>>, w: Vec<f32>, b: Vec<u8>) {
    if w.capacity() > 0 {
        words.push(w);
    }
    if b.capacity() > 0 {
        bytes.push(b);
    }
}

/// How requests are paced.
#[derive(Clone, Copy)]
enum Pacing {
    /// Open loop: each arrival is due at its scheduled time, and its
    /// latency runs from then.
    Open,
    /// Closed loop: `clients` requests in flight, the next one submitted
    /// as one completes; latency runs from submission. Stops after the
    /// phase's horizon of wall time.
    Closed { clients: usize },
}

/// Replays one seeded schedule at `rate` for `horizon_s`, verifying
/// every response.
fn phase(b: &mut Bench, rate: f64, horizon_s: f64, seed: u64, tr: &mut Tracer) -> Phase {
    run_phase(b, Pacing::Open, rate, horizon_s, seed, tr)
}

fn run_phase(
    b: &mut Bench,
    pacing: Pacing,
    rate: f64,
    horizon_s: f64,
    seed: u64,
    tr: &mut Tracer,
) -> Phase {
    let schedule = Schedule::generate(&loads(rate), horizon_s, seed);
    let mut p = Phase::default();
    if let Pacing::Closed { .. } = pacing {
        // Room for the window up front: growing by doubling made peak
        // RSS jump by whole buffer sizes from run to run.
        p.latency.reserve(CLOSED_LATENCY_ROOM);
    }
    let mut metas: Vec<Option<Meta>> = vec![None; schedule.len()];
    let mut spare_words: Vec<Vec<f32>> = Vec::new();
    let mut spare_bytes: Vec<Vec<u8>> = Vec::new();
    let mut done: Vec<Completion> = Vec::with_capacity(1024);
    let origin = Instant::now();
    let s0 = b.server.now_s();
    let clock = |t: Instant| s0 + t.duration_since(origin).as_secs_f64();
    let instant = |s: f64| origin + Duration::from_secs_f64((s - s0).max(0.0));
    let mut accepted = 0u64;

    // Drains completions and verifies each.
    let mut absorb = |b: &Bench,
                      p: &mut Phase,
                      metas: &mut [Option<Meta>],
                      spare_words: &mut Vec<Vec<f32>>,
                      spare_bytes: &mut Vec<Vec<u8>>,
                      tr: &mut Tracer| {
        let t0 = Instant::now();
        b.server.drain_completions(&mut done);
        let drained = Instant::now();
        if done.is_empty() {
            return;
        }
        tr.record("serve.drain", t0, drained, None, None);
        p.drains += 1;
        let drained_s = clock(drained);
        for c in done.drain(..) {
            let id = c.response.id as usize;
            let m = metas[id % metas.len()]
                .take()
                .expect("one completion per admitted request");
            let resp = &c.response;
            let ok = match (resp.error.is_some(), m.kind) {
                (true, _) => None,
                (false, JobKind::Compress) => {
                    // The submitted words were this pool payload, whose
                    // stream was checked at set-up to decode back to it:
                    // a response that repeats the stream byte for byte
                    // decodes back to the submitted words. Decoding every
                    // response here would make the pacer, not the server,
                    // the bottleneck of the closed loop.
                    let (bytes, offsets) = &b.expected[m.class][m.slot];
                    Some(resp.bytes == *bytes && resp.offsets == *offsets)
                }
                (false, _) => Some(bit_identical(&resp.words, &b.prefetch[m.slot].0)),
            };
            match ok {
                None => p.outcomes.failed += 1,
                Some(true) => p.outcomes.completed += 1,
                Some(false) => p.outcomes.mismatched += 1,
            }
            p.bytes += resp.uncompressed_bytes;
            p.latency.push(c.finished_s - m.due_s);
            if tr.on() {
                p.pacer_lag.push(m.submit_s - m.due_s);
                p.submit_ns.push((m.submitted_s - m.submit_s) * 1e9);
                p.in_server.push(c.finished_s - c.arrival_s);
                p.drain_lag.push(drained_s - c.finished_s);
                let req = Some(id as u64);
                let root = tr.record("serve.request", instant(m.due_s), drained, None, req);
                let stages = [
                    ("serve.pacer_lag", m.due_s, m.submit_s),
                    ("serve.submit", m.submit_s, m.submitted_s),
                    ("serve.in_server", m.submitted_s, c.finished_s),
                    ("serve.drain_lag", c.finished_s, drained_s),
                ];
                for (name, s, e) in stages {
                    tr.record(name, instant(s), instant(e.max(s)), root, req);
                }
            }
            let (words, bytes) = b.server.recycle(c.response);
            recycle(spare_words, spare_bytes, words, bytes);
        }
    };

    // A closed loop takes its request mix from the schedule, cycling it
    // for as long as the window lasts.
    let count = match pacing {
        Pacing::Open => schedule.len(),
        Pacing::Closed { .. } => usize::MAX,
    };
    for (id, a) in schedule.arrivals.iter().cycle().take(count).enumerate() {
        // Pacing on the pacer's own core: spin (a sleep would add the
        // timer slack to every latency), draining completions every
        // DRAIN_EVERY_S on the way.
        let mut last_drain = origin.elapsed().as_secs_f64();
        let due = loop {
            let now = origin.elapsed().as_secs_f64();
            match pacing {
                Pacing::Open if now >= a.at_s => break a.at_s,
                Pacing::Closed { clients } => {
                    let finished = p.outcomes.completed + p.outcomes.failed + p.outcomes.mismatched;
                    if accepted - finished < clients as u64 {
                        break now;
                    }
                }
                Pacing::Open => {}
            }
            if now - last_drain >= DRAIN_EVERY_S {
                absorb(
                    b,
                    &mut p,
                    &mut metas,
                    &mut spare_words,
                    &mut spare_bytes,
                    tr,
                );
                last_drain = now;
            }
            std::hint::spin_loop();
        };
        if matches!(pacing, Pacing::Closed { .. }) && due >= horizon_s {
            break;
        }
        p.outcomes.attempted += 1;
        let (kind, class, slot) = b.pick(a);
        let req = match kind {
            JobKind::Compress => {
                let mut w = spare_words.pop().unwrap_or_default();
                w.clear();
                w.extend_from_slice(&b.words[class][slot]);
                Request::compress(TenantId(0), id as u64, Algorithm::Zvc, w)
            }
            _ => {
                let mut v = spare_bytes.pop().unwrap_or_default();
                v.clear();
                v.extend_from_slice(&b.prefetch[slot].1);
                Request::decompress(
                    TenantId(1),
                    id as u64,
                    Algorithm::Zvc,
                    v,
                    WINDOW_WORDS as u32,
                )
            }
        };
        let t_submit = Instant::now();
        let res = b.server.submit(req);
        let t_submitted = Instant::now();
        match res {
            Ok(_) => {
                accepted += 1;
                let at = id % metas.len();
                metas[at] = Some(Meta {
                    due_s: s0 + due,
                    submit_s: clock(t_submit),
                    submitted_s: clock(t_submitted),
                    kind,
                    slot,
                    class,
                });
            }
            Err((_, req)) => {
                p.outcomes.shed += 1;
                recycle(&mut spare_words, &mut spare_bytes, req.words, req.bytes);
            }
        }
        absorb(
            b,
            &mut p,
            &mut metas,
            &mut spare_words,
            &mut spare_bytes,
            tr,
        );
    }
    b.server.wait_drained();
    absorb(
        b,
        &mut p,
        &mut metas,
        &mut spare_words,
        &mut spare_bytes,
        tr,
    );
    // An admitted request that never completed is a failure.
    let finished = p.outcomes.completed + p.outcomes.failed + p.outcomes.mismatched;
    p.outcomes.failed += accepted.saturating_sub(finished);
    p
}

fn us(v: f64) -> f64 {
    v * 1e6
}

/// p99 latency of a phase, with every shed, failed or wrong request
/// counted as a miss of any latency limit; +inf when nothing was
/// attempted.
fn p99(p: &Phase) -> f64 {
    let mut v = p.latency.clone();
    v.resize(v.len() + p.outcomes.failures() as usize, f64::INFINITY);
    if v.is_empty() {
        return f64::INFINITY;
    }
    sort(&mut v);
    percentile_sorted(&v, 99.0)
}

/// `subs` back-to-back phases of `sub_s` each, seeded `seed + k`; a
/// single stall of the host then spoils one sub-phase, not the figure.
fn repeated(
    b: &mut Bench,
    rate: f64,
    sub_s: f64,
    subs: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<Phase> {
    (0..subs)
        .map(|k| phase(b, rate, sub_s, seed.wrapping_add(k as u64), tr))
        .collect()
}

/// Median over sub-phases of each sub-phase's p99, in seconds.
fn median_p99(subs: &[Phase]) -> f64 {
    median(&subs.iter().map(p99).collect::<Vec<_>>())
}

/// The sub-phases pooled into one sample set.
fn pooled(subs: Vec<Phase>) -> Phase {
    let mut all = Phase::default();
    for p in subs {
        all.latency.extend(p.latency);
        all.submit_ns.extend(p.submit_ns);
        all.pacer_lag.extend(p.pacer_lag);
        all.in_server.extend(p.in_server);
        all.drain_lag.extend(p.drain_lag);
        all.drains += p.drains;
        all.outcomes.add(p.outcomes);
        all.bytes += p.bytes;
    }
    all
}

pub fn run(args: &Args) -> Report {
    // Counted before any pinning narrows this thread's CPU set.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    // A server's workers run until shutdown, so each discarded set-up
    // is shut down before the next starts.
    let (mut b, setup_s) = timed_setup(
        SETUP_REPS,
        || start(args.seed, workers),
        |b: Bench| {
            b.server.shutdown();
        },
    );
    let mut report = Report::default();
    report.metrics.set("setup_s", setup_s);
    let total = args.seconds.as_secs_f64();
    if args.trace {
        traced(args, &mut b, total, &mut report);
    } else {
        timed(args, &mut b, total, &mut report);
    }
    b.server.shutdown();
    report
}

/// Total modelled request latency of a virtual-time replay, in seconds,
/// with the number of requests it sums over.
fn modelled_latency(v: &LoadReport) -> (f64, u64) {
    v.tenants
        .iter()
        .filter_map(|t| t.latency.as_ref())
        .fold((0.0, 0), |(s, n), l| {
            (s + l.mean_s * l.count as f64, n + l.count)
        })
}

/// The end-to-end figures, from `CLOSED_WINDOWS` rounds. Each round
/// replays one seeded r20k schedule in the virtual-time driver (the
/// serve path's model), then runs `CLIENTS` closed-loop clients against
/// the server for one window. Interleaving the two spreads both over the
/// whole run. Host time, capacity and throughput are totals over the
/// rounds; latency (from submission) is the median window's p50 and p99.
fn timed(args: &Args, b: &mut Bench, total: f64, report: &mut Report) {
    let config = server_config(b.workers);
    let (_, rate) = SERVE_RATES[1];
    let replay = |k: u64| {
        let t0 = Instant::now();
        let v = run_virtual(
            &config,
            &loads(rate),
            VIRTUAL_HORIZON_S,
            args.seed.wrapping_add(k),
            ServiceModel::default(),
        );
        (modelled_latency(&v), t0.elapsed().as_secs_f64())
    };
    let window_s = CLOSED_SHARE * total / CLOSED_WINDOWS as f64;
    let mut outcomes = Outcomes::default();
    let (mut p50s, mut p99s, mut modelled) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut bytes) = (0usize, 0u64);
    let (mut sim_s, mut closed_s) = (0.0, 0.0);
    for k in 0..CLOSED_WINDOWS {
        let (latency, host_s) = replay(k as u64);
        modelled.push(latency);
        sim_s += host_s;
        let t0 = Instant::now();
        let p = run_phase(
            b,
            Pacing::Closed { clients: CLIENTS },
            CLOSED_STREAM_RATE,
            window_s,
            args.seed.wrapping_add(k as u64),
            &mut Tracer::new(false),
        );
        closed_s += t0.elapsed().as_secs_f64();
        p50s.push(median(&p.latency));
        p99s.push(p99(&p));
        requests += p.latency.len();
        bytes += p.bytes;
        outcomes.add(p.outcomes);
    }
    let (first, (again, _)) = (modelled[0], replay(0));
    let same = first.0.to_bits() == again.0.to_bits() && first.1 == again.1;
    report.gate(same, || {
        format!("virtual replay reran to {again:?}, first gave {first:?} (latency s, requests)")
    });
    report.outcomes.add(outcomes);
    let (sum, n) = modelled
        .iter()
        .fold((0.0, 0), |(s, n), &(ls, ln)| (s + ls, n + ln));
    let m = &mut report.metrics;
    m.set("sim_host_ms", sim_s / CLOSED_WINDOWS as f64 * 1e3);
    m.set("modelled_step_ms", sum / n.max(1) as f64 * 1e3);
    let capacity = requests as f64 / closed_s;
    m.set("capacity_rps", capacity);
    m.set("offload_gbps", bytes as f64 / closed_s / 1e9);
    m.set("p50_us", us(median(&p50s)));
    m.set("p99_us", us(median(&p99s)));
    m.set("e2e.latency_samples", requests as f64);
    // The wire ratio of one second of the seeded request mix. Every
    // compress response repeats its payload's expected stream (checked
    // as it drains), so this is the ratio served, and it depends on the seed
    // alone, not on how many requests a run completed.
    let mix = Schedule::generate(&loads(CLOSED_STREAM_RATE), 1.0, args.seed);
    let (raw, wire) = mix
        .arrivals
        .iter()
        .map(|a| b.pick(a))
        .filter(|&(kind, _, _)| kind == JobKind::Compress)
        .fold((0, 0), |(raw, wire), (_, class, slot)| {
            let words = b.words[class][slot].len() * 4;
            (raw + words, wire + b.expected[class][slot].0.len())
        });
    m.set("wire_ratio", raw as f64 / wire as f64);
    report.notes.push(format!(
        "serve_mixed: {CLIENTS} closed-loop clients, {requests} requests, {capacity:.0} req/s"
    ));
}

/// The per-layer figures: open-loop phases at the fixed offered rates,
/// latency timed from each request's due time, with spans around every
/// stage of every request.
fn traced(args: &Args, b: &mut Bench, total: f64, report: &mut Report) {
    let mut tr = Tracer::new(true);
    let mut base_p50 = 0.0;
    let mut r20k_p50 = 0.0;
    for (i, &(label, rate)) in SERVE_RATES.iter().enumerate() {
        let seed = args.seed.wrapping_add(i as u64 * 1000);
        let (share, n) = PHASE_PLAN[i];
        let sub_s = share * total / n as f64;
        if i == 1 {
            // Untraced twin of this phase: the tracing overhead is the
            // difference in median latency.
            let p = pooled(repeated(
                b,
                rate,
                sub_s,
                n / 2,
                seed,
                &mut Tracer::new(false),
            ));
            base_p50 = median(&p.latency);
            report.outcomes.add(p.outcomes);
        }
        let subs = repeated(b, rate, sub_s, n, seed, &mut tr);
        let tail = median_p99(&subs);
        let p = pooled(subs);
        report.outcomes.add(p.outcomes);
        rate_metrics(&mut report.metrics, label, tail, &p);
        if i == 1 {
            r20k_p50 = median(&p.latency);
            report
                .metrics
                .set("e2e.latency_samples", p.latency.len() as f64);
            report.metrics.set("e2e.tail_pct", 99.0);
        }
    }
    let m = &mut report.metrics;
    m.set("trace.overhead_frac", r20k_p50 / base_p50 - 1.0);
    m.set("trace.spans", tr.spans().len() as f64);
    for (name, share) in tr.module_shares() {
        m.set(name, share);
    }
    zvc_4k_probe(b, m);
    write_result(args, "host.trace.json", &tr.chrome_json(&args.workload));
}

fn rate_metrics(m: &mut Metrics, label: &str, p99: f64, p: &Phase) {
    let t = |v: &[f64]| {
        let mut v = v.to_vec();
        sort(&mut v);
        if v.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&v), percentile_sorted(&v, 99.0))
        }
    };
    m.set(format!("p50_us.{label}"), us(median(&p.latency)));
    m.set(format!("p99_us.{label}"), us(p99));
    let (a, b) = t(&p.submit_ns);
    m.set(format!("serve.submit_ns.p50.{label}"), a);
    m.set(format!("serve.submit_ns.p99.{label}"), b);
    for (name, v) in [
        ("pacer_lag_us", &p.pacer_lag),
        ("in_server_us", &p.in_server),
        ("drain_lag_us", &p.drain_lag),
    ] {
        let (a, b) = t(v);
        m.set(format!("serve.{name}.p50.{label}"), us(a));
        m.set(format!("serve.{name}.p99.{label}"), us(b));
    }
    m.set(
        format!("serve.completions_per_drain.{label}"),
        p.latency.len() as f64 / p.drains.max(1) as f64,
    );
    let o = p.outcomes;
    m.set(format!("serve.attempted.{label}"), o.attempted as f64);
    m.set(format!("serve.completed.{label}"), o.completed as f64);
    m.set(format!("serve.shed.{label}"), o.shed as f64);
    m.set(
        format!("serve.failed.{label}"),
        (o.failed + o.mismatched) as f64,
    );
}

/// ZVC call time on the serve payloads: one 4 KB window per call.
fn zvc_4k_probe(b: &Bench, m: &mut Metrics) {
    let zvc = Zvc::new();
    let mut stream = WindowedStream::default();
    let mut out = Vec::new();
    let (mut c, mut d) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        for v in &b.words[0] {
            let t0 = Instant::now();
            stream.recompress(&zvc, v, WINDOW_WORDS * 4);
            c.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let t0 = Instant::now();
            let ok = stream.decompress_into(&zvc, &mut out).is_ok();
            d.push(t0.elapsed().as_nanos() as f64 / 1e3);
            assert!(ok && bit_identical(&out, v), "ZVC 4 KB round trip");
        }
    }
    m.set("compress.zv.compress_4k_us", median(&c));
    m.set("compress.zv.decompress_4k_us", median(&d));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_payloads() {
        let a = Schedule::generate(&loads(5_000.0), 0.05, 9);
        let b = Schedule::generate(&loads(5_000.0), 0.05, 9);
        let c = Schedule::generate(&loads(5_000.0), 0.05, 10);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(a.arrivals, c.arrivals);
        assert!(
            a.arrivals.iter().any(|x| x.tenant == 0) && a.arrivals.iter().any(|x| x.tenant == 1)
        );

        let (w1, p1) = payloads(9);
        let (w2, p2) = payloads(9);
        let (w3, _) = payloads(10);
        assert!(w1[1].iter().zip(&w2[1]).all(|(x, y)| bit_identical(x, y)));
        assert!(p1.iter().zip(&p2).all(|(x, y)| x.1 == y.1));
        assert!(w1[0].iter().zip(&w3[0]).any(|(x, y)| !bit_identical(x, y)));
    }
}
