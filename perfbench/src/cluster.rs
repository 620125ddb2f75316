//! `cluster_fabric`: multi-GPU steps and tenant churn, no codec work.
//!
//! Each iteration runs three `ClusterSim::simulate` steps at the uniform
//! ratio 2.6 — flat g = 1024, node8 g = 1024, and a flat round-robin
//! multi-tenant g = 8 step (the `LinkArbiter` quantum schedule) — and one
//! `FabricSim::run` pass over a seeded `churn_trace`. Every iteration
//! must repeat the first one's events and modelled makespans exactly.

use std::time::Instant;

use cdma_gpusim::SystemConfig;
use cdma_models::{zoo, NetworkSpec};
use cdma_vdnn::cluster::{ClusterSim, ClusterTimeline, Tenant};
use cdma_vdnn::fabric::{churn_trace, FabricRun, FabricShape, FabricSim, Job, JobTemplate};
use cdma_vdnn::{ComputeModel, CudnnVersion, FidelitySource, LinkPolicy, UniformRatio};

use crate::report::Report;
use crate::stats::{median, Tail};
use crate::trace::{ChromeTrace, Tracer};
use crate::{timed_setup, write_result, Args};

/// The paper's average compression ratio.
const RATIO: f64 = 2.6;
/// Churn trace shape: the first `CHURN_JOBS` jobs of a trace drawn over
/// this horizon (long enough that the trace always holds them; a fixed
/// job count keeps the pass's work from swinging with the seed)...
pub const CHURN_HORIZON_S: f64 = 16.0;
pub const CHURN_JOBS: usize = 16;
/// ...at this mean interarrival, on a 4 × 8-GPU fabric, jobs up to 16
/// GPUs wide.
pub const CHURN_MEAN_INTERARRIVAL_S: f64 = 0.25;
const CHURN_GPUS: usize = 32;
const CHURN_MAX_JOB_GPUS: usize = 16;
const SETUP_REPS: usize = 15;

/// The simulated cases, in run order.
const CASES: [&str; 4] = [
    "vdnn.cluster.flat_g1024",
    "vdnn.cluster.node8_g1024",
    "vdnn.cluster.flat_rr_g8",
    "vdnn.fabric.churn",
];

struct Setup {
    alexnet: NetworkSpec,
    mix: Vec<NetworkSpec>,
    alexnet_src: UniformRatio,
    /// One checkpoint per churn network (uniform ratio).
    checkpoints: Vec<Vec<FidelitySource>>,
    sources: Vec<UniformRatio>,
    flat: ClusterSim,
    node8: ClusterSim,
    rr: ClusterSim,
    churn: FabricSim,
    trace: Vec<JobTemplate>,
    /// Node-tier wire bytes of the node8 step with compression off.
    raw_wire: f64,
}

/// The seeded churn trace over the four-network mix.
pub fn churn(seed: u64) -> Vec<JobTemplate> {
    let mut trace = churn_trace(
        seed,
        CHURN_HORIZON_S,
        CHURN_MEAN_INTERARRIVAL_S,
        4,
        CHURN_MAX_JOB_GPUS,
    );
    assert!(trace.len() >= CHURN_JOBS, "churn trace too short");
    trace.truncate(CHURN_JOBS);
    trace
}

fn setup(seed: u64) -> Setup {
    let cfg = SystemConfig::titan_x_pcie3();
    let compute = ComputeModel::titan_x(CudnnVersion::V5);
    let node8 = |gpus| {
        FabricShape::Hierarchical { gpus_per_node: 8 }
            .spec_for(&cfg, gpus, LinkPolicy::BandwidthShare)
            .expect("hierarchical shapes always concretize")
    };
    let share = ClusterSim::new(cfg, compute, LinkPolicy::BandwidthShare).record_events(false);
    let alexnet = zoo::alexnet();
    let mix = vec![
        zoo::alexnet(),
        zoo::vgg(),
        zoo::googlenet(),
        zoo::squeezenet(),
    ];
    let sources: Vec<UniformRatio> = mix
        .iter()
        .map(|s| UniformRatio::uniform(s, RATIO))
        .collect();
    let checkpoints = sources.iter().map(|s| vec![s.clone().into()]).collect();
    let raw = UniformRatio::uniform(&alexnet, 1.0);
    let node8_sim = share.with_fabric(node8(1024));
    let raw_wire = node8_sim
        .simulate(&[Tenant {
            spec: &alexnet,
            source: &raw,
            gpus: 1024,
        }])
        .node_wire_bytes()
        .iter()
        .sum();
    Setup {
        alexnet_src: UniformRatio::uniform(&alexnet, RATIO),
        alexnet,
        mix,
        checkpoints,
        sources,
        flat: share,
        node8: node8_sim,
        rr: ClusterSim::new(cfg, compute, LinkPolicy::RoundRobin),
        churn: FabricSim::new(share.with_fabric(node8(CHURN_GPUS))),
        trace: churn(seed),
        raw_wire,
    }
}

/// One iteration's results.
struct Iteration {
    host_ns: u64,
    call_ns: [u64; 4],
    events: [u64; 4],
    makespan: [f64; 4],
    /// Mean modelled per-GPU step time of the churn run.
    churn_mean_step: f64,
    node8_wire: f64,
    rr: Option<ClusterTimeline>,
    churn: Option<FabricRun>,
}

/// Runs `f` inside the span of case `i`; returns its result and host ns.
fn timed<R>(tr: &mut Tracer, i: usize, f: impl FnOnce() -> R) -> (R, u64) {
    tr.enter(CASES[i]);
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    tr.exit();
    (r, ns)
}

fn iterate(s: &Setup, tr: &mut Tracer) -> Iteration {
    let t_iter = Instant::now();
    tr.enter("bench.iteration");
    let one = |gpus| {
        [Tenant {
            spec: &s.alexnet,
            source: &s.alexnet_src,
            gpus,
        }]
    };
    let rr_tenants: Vec<Tenant<'_>> = s
        .mix
        .iter()
        .zip(&s.sources)
        .map(|(spec, source)| Tenant {
            spec,
            source,
            gpus: 2,
        })
        .collect();
    let jobs: Vec<Job<'_>> = s
        .trace
        .iter()
        .map(|t| Job {
            spec: &s.mix[t.network],
            gpus: t.gpus,
            arrival: t.arrival,
            steps: t.steps,
            departure: t.departure,
            checkpoints: &s.checkpoints[t.network],
        })
        .collect();

    let (flat, flat_ns) = timed(tr, 0, || s.flat.simulate(&one(1024)));
    let (node8, node8_ns) = timed(tr, 1, || s.node8.simulate(&one(1024)));
    let (rr, rr_ns) = timed(tr, 2, || s.rr.simulate(&rr_tenants));
    let (churn, churn_ns) = timed(tr, 3, || s.churn.run(&jobs));
    tr.exit();
    Iteration {
        host_ns: t_iter.elapsed().as_nanos() as u64,
        call_ns: [flat_ns, node8_ns, rr_ns, churn_ns],
        events: [
            flat.events_processed(),
            node8.events_processed(),
            rr.events_processed(),
            churn.events_processed,
        ],
        makespan: [
            flat.makespan(),
            node8.makespan(),
            rr.makespan(),
            churn.makespan,
        ],
        churn_mean_step: churn.stats.mean_step,
        node8_wire: node8.node_wire_bytes().iter().sum(),
        rr: Some(rr),
        churn: Some(churn),
    }
}

pub fn run(args: &Args) -> Report {
    let (s, setup_s) = timed_setup(
        SETUP_REPS,
        || {
            let s = setup(args.seed);
            // Warm-up: one iteration, counted in set-up.
            iterate(&s, &mut Tracer::new(false));
            s
        },
        drop,
    );
    let mut report = Report::default();
    report.metrics.set("setup_s", setup_s);
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let untraced = measure(&s, &mut Tracer::new(false), budget, &mut report);
    let mut tr = Tracer::new(args.trace);
    let iters = if args.trace {
        measure(&s, &mut tr, budget, &mut report)
    } else {
        Vec::new()
    };
    let iters = if args.trace { &iters } else { &untraced };

    let m = &mut report.metrics;
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<f64> = iters.iter().map(|i| i.host_ns as f64 / 1e3).collect();
    let tail = Tail::of(&lat, 99.0);
    let first = &iters[0];
    m.set("p50_us", tail.p50);
    m.set("p99_us", tail.tail);
    m.set("e2e.latency_samples", tail.count as f64);
    m.set("e2e.tail_pct", tail.tail_pct);
    // Throughputs and per-iteration host time are totals over the run
    // (see `offload::timed_metrics`).
    let n = iters.len() as f64;
    let host_ns: f64 = iters.iter().map(|i| i.host_ns as f64).sum();
    let node8_ns: f64 = iters.iter().map(|i| i.call_ns[1] as f64).sum();
    m.set("capacity_rps", CASES.len() as f64 * n / host_ns * 1e9);
    m.set("offload_gbps", s.raw_wire * n / node8_ns);
    m.set("sim_host_ms", host_ns / n / 1e6);
    // The three steps' makespans plus the churn run's mean step: the
    // churn makespan itself swings with the seed's job mix.
    let steps: f64 = first.makespan[..3].iter().sum();
    m.set("modelled_step_ms", (steps + first.churn_mean_step) * 1e3);
    m.set("wire_ratio", s.raw_wire / first.node8_wire);
    if args.trace {
        for (i, case) in CASES.iter().enumerate() {
            let host = med(&|it| it.call_ns[i] as f64);
            m.set(format!("{case}.host_ms"), host / 1e6);
            m.set(format!("{case}.events"), first.events[i] as f64);
            if i < 3 {
                m.set(
                    format!("{case}.ns_per_event"),
                    host / first.events[i] as f64,
                );
            }
        }
        let base = median(
            &untraced
                .iter()
                .map(|i| i.host_ns as f64)
                .collect::<Vec<_>>(),
        );
        m.set(
            "trace.overhead_frac",
            med(&|i| i.host_ns as f64) / base - 1.0,
        );
        m.set("trace.spans", tr.spans().len() as f64);
        for (name, share) in tr.module_shares() {
            m.set(name, share);
        }
        write_result(args, "host.trace.json", &tr.chrome_json(&args.workload));
        write_result(
            args,
            "virtual.trace.json",
            &virtual_trace(&s, iters.last().expect("ran")),
        );
    }
    report
        .notes
        .push(crate::stats::iteration_note(iters, |i| i.host_ns as f64));
    report.notes.push(format!(
        "cluster_fabric: {} iterations, events per case {:?}, modelled makespans {:?} s, churn jobs {}",
        iters.len(),
        first.events,
        first.makespan,
        s.trace.len()
    ));
    report
}

/// Iterates for `budget` (at least twice); each simulation counts as one
/// attempt, and must repeat the first iteration's events and makespan.
fn measure(
    s: &Setup,
    tr: &mut Tracer,
    budget: std::time::Duration,
    report: &mut Report,
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < 2 || start.elapsed() < budget {
        let it = iterate(s, tr);
        for (i, case) in CASES.iter().enumerate() {
            report.outcomes.attempted += 1;
            let first = iters.first().unwrap_or(&it);
            if it.events[i] == first.events[i]
                && it.makespan[i].to_bits() == first.makespan[i].to_bits()
            {
                report.outcomes.completed += 1;
            } else {
                report.outcomes.mismatched += 1;
                report.gates.push(format!(
                    "{case}: rerun gave {} events / {} s, first run {} / {} s",
                    it.events[i], it.makespan[i], first.events[i], first.makespan[i]
                ));
            }
        }
        // Keep the full results of the latest iteration only.
        if let Some(prev) = iters.last_mut() {
            prev.rr = None;
            prev.churn = None;
        }
        iters.push(it);
    }
    iters
}

/// The round-robin step's per-GPU stages and the churn run's cluster
/// steps on the modelled clock.
fn virtual_trace(s: &Setup, it: &Iteration) -> String {
    let mut v = ChromeTrace::new();
    if let Some(rr) = &it.rr {
        v.process(1, "flat_rr_g8 (modelled)");
        for (g, tl) in rr.gpus().iter().enumerate() {
            let tid = g as u32 + 1;
            let spec = &s.mix[rr.tenant_of(g)];
            v.thread(1, tid, &format!("gpu{g} {}", spec.name()));
            for st in tl.stages() {
                let name = &spec.layers()[st.layer].name;
                v.complete(
                    1,
                    tid,
                    name,
                    st.start * 1e6,
                    (st.end - st.start) * 1e6,
                    "{}",
                );
            }
        }
    }
    if let Some(run) = &it.churn {
        v.process(2, "churn (modelled)");
        v.thread(2, 1, "cluster steps");
        for (i, st) in run.steps.iter().enumerate() {
            let args = format!("{{\"tenants\":{},\"gpus\":{}}}", st.tenants, st.gpus);
            v.complete(
                2,
                1,
                &format!("step{i}"),
                st.start * 1e6,
                st.makespan * 1e6,
                &args,
            );
        }
    }
    v.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_trace_follows_the_seed() {
        assert_eq!(churn(3), churn(3));
        assert_ne!(churn(3), churn(4));
        assert_eq!(churn(4).len(), CHURN_JOBS);
    }
}
