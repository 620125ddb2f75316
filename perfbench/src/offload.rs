//! `offload_zvc` and `offload_entropy`: the paper's offload path.
//!
//! Per DNN layer, one image's activations are generated at the layer's
//! profiled density (checkpoint t = 0.5), compressed into a line table by
//! `CdmaEngine::compress_lines_into` and replicated to the batch, as
//! `cdma_core::measured::synthesized_stream` does. The step is simulated
//! at measured fidelity (`TimelineSim::simulate`), each layer's lines run
//! through `OffloadSim::run_lines`, and every tensor is restored with
//! `WindowedStream::decompress_into` and checked bit for bit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cdma_compress::windowed::WindowedStream;
use cdma_compress::Algorithm;
use cdma_core::CdmaEngine;
use cdma_gpusim::{OffloadSim, OffloadSimResult, SystemConfig};
use cdma_models::{profiles, zoo, NetworkSpec};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};
use cdma_vdnn::timeline::Phase;
use cdma_vdnn::{ComputeModel, CudnnVersion, MeasuredStream, StepTimeline, TimelineSim};

use crate::report::{Metrics, Report};
use crate::stats::{iteration_note, median, Outcomes, Tail};
use crate::trace::{ChromeTrace, Tracer};
use crate::{timed_setup, write_result, Args};

/// Training checkpoint the layer densities are read at.
const CHECKPOINT: f64 = 0.5;
/// The paper's compression window.
const WINDOW_BYTES: usize = 4096;
/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 5;

/// One network's generated inputs: `tensors[0]` is the (dense) network
/// input, `tensors[1 + i]` layer `i`'s output, one image each.
pub struct Net {
    pub spec: NetworkSpec,
    pub tensors: Vec<Vec<f32>>,
    pub density: Vec<f64>,
}

/// Generates one network's per-image activations from `seed`.
pub fn generate(spec: NetworkSpec, seed: u64) -> Net {
    let profile = profiles::density_profile(&spec);
    let mut gen = ActivationGen::seeded(seed);
    let input = spec.input();
    let mut tensors = vec![gen
        .generate(Shape4::new(1, input.c, input.h, input.w), Layout::Nchw, 1.0)
        .into_vec()];
    for layer in spec.layers() {
        let density = profile
            .trajectory(&layer.name)
            .expect("every zoo layer has a density profile")
            .density_at(CHECKPOINT);
        let shape = Shape4::new(1, layer.out.c, layer.out.h, layer.out.w);
        tensors.push(gen.generate(shape, Layout::Nchw, density).into_vec());
    }
    let density = tensors
        .iter()
        .map(|t| t.iter().filter(|v| v.to_bits() != 0).count() as f64 / t.len().max(1) as f64)
        .collect();
    Net {
        spec,
        tensors,
        density,
    }
}

/// The networks and codecs of a workload.
pub fn workload_mix(name: &str) -> (Vec<NetworkSpec>, Vec<Algorithm>) {
    match name {
        "offload_zvc" => (
            vec![zoo::alexnet(), zoo::vgg(), zoo::googlenet()],
            vec![Algorithm::Zvc],
        ),
        _ => (
            vec![zoo::alexnet(), zoo::googlenet()],
            vec![Algorithm::Adaptive, Algorithm::Huff],
        ),
    }
}

/// Per-network generation seed, split from the workload seed.
pub fn net_seed(seed: u64, net: usize) -> u64 {
    seed ^ (net as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn label(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Zvc => "zv",
        Algorithm::Adaptive => "ad",
        Algorithm::Huff => "hf",
        _ => unreachable!("offload workloads run ZV, AD and HF only"),
    }
}

fn decompress_span(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Zvc => "compress.zv.decompress",
        Algorithm::Adaptive => "compress.ad.decompress",
        _ => "compress.hf.decompress",
    }
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One (network, codec) pair with its recycled buffers.
struct Lane {
    net: usize,
    alg: Algorithm,
    engine: CdmaEngine,
    streams: Vec<WindowedStream>,
    lines: Vec<Vec<(u32, u32)>>,
    restored: Vec<f32>,
}

/// What one pass of a lane measured.
#[derive(Default)]
struct LaneRun {
    compress_ns: Vec<u64>,
    decompress_ns: Vec<u64>,
    dma: Vec<OffloadSimResult>,
    timeline: Option<StepTimeline>,
    timeline_ns: u64,
    dma_ns: u64,
    uncompressed: u64,
    wire: u64,
}

/// Runs the offload path once for `lane`.
fn pass(
    lane: &mut Lane,
    net: &Net,
    sim: &TimelineSim,
    tr: &mut Tracer,
    outcomes: &mut Outcomes,
) -> LaneRun {
    let mut run = LaneRun::default();
    let batch = net.spec.batch();
    for (k, data) in net.tensors.iter().enumerate() {
        tr.enter("core.compress_lines");
        let t0 = Instant::now();
        let stats = lane
            .engine
            .compress_lines_into(data, &mut lane.streams[k], &mut lane.lines[k]);
        run.compress_ns.push(t0.elapsed().as_nanos() as u64);
        tr.exit();
        run.uncompressed += stats.uncompressed_bytes;
        run.wire += stats.compressed_bytes;
    }
    tr.enter("bench.replicate");
    let replicate = |per_image: &[(u32, u32)]| {
        let mut v = Vec::with_capacity(per_image.len() * batch);
        for _ in 0..batch {
            v.extend_from_slice(per_image);
        }
        v
    };
    let stream = MeasuredStream::new(
        replicate(&lane.lines[0]),
        lane.lines[1..].iter().map(|l| replicate(l)).collect(),
    );
    tr.exit();

    tr.enter("vdnn.timeline");
    let t0 = Instant::now();
    let timeline = sim.simulate(&net.spec, &stream);
    run.timeline_ns = t0.elapsed().as_nanos() as u64;
    tr.exit();
    let offload = OffloadSim::new(sim.config());
    for i in 0..stream.layer_count() {
        tr.enter("gpusim.dma");
        let t0 = Instant::now();
        run.dma.push(offload.run_lines(stream.layer_lines(i)));
        run.dma_ns += t0.elapsed().as_nanos() as u64;
        tr.exit();
    }
    run.timeline = Some(timeline);

    let codec = lane.engine.codec();
    for (k, data) in net.tensors.iter().enumerate() {
        outcomes.attempted += 1;
        tr.enter(decompress_span(lane.alg));
        let t0 = Instant::now();
        let res = lane.streams[k].decompress_into(&codec, &mut lane.restored);
        run.decompress_ns.push(t0.elapsed().as_nanos() as u64);
        tr.exit();
        tr.enter("bench.verify");
        match res {
            Err(_) => outcomes.failed += 1,
            Ok(()) if bit_identical(&lane.restored, data) => outcomes.completed += 1,
            Ok(()) => outcomes.mismatched += 1,
        }
        tr.exit();
    }
    run
}

/// Everything one iteration (every lane once) measured.
#[derive(Default)]
struct Iteration {
    host_ns: u64,
    codec_ns: u64,
    sim_ns: u64,
    round_trips: u64,
    bytes: u64,
    uncompressed: u64,
    wire: u64,
    modelled_s: f64,
    latencies_us: Vec<f64>,
    lanes: Vec<LaneRun>,
}

fn iterate(
    lanes: &mut [Lane],
    nets: &[Net],
    sim: &TimelineSim,
    tr: &mut Tracer,
    outcomes: &mut Outcomes,
) -> Iteration {
    let mut it = Iteration::default();
    let t0 = Instant::now();
    tr.enter("bench.iteration");
    for lane in lanes.iter_mut() {
        let net = &nets[lane.net];
        let run = pass(lane, net, sim, tr, outcomes);
        for (k, (c, d)) in run.compress_ns.iter().zip(&run.decompress_ns).enumerate() {
            it.codec_ns += c + d;
            it.bytes += net.tensors[k].len() as u64 * 4;
            it.latencies_us.push((c + d) as f64 / 1e3);
        }
        it.round_trips += net.tensors.len() as u64;
        it.sim_ns += run.timeline_ns + run.dma_ns;
        it.uncompressed += run.uncompressed;
        it.wire += run.wire;
        it.modelled_s += run.timeline.as_ref().map_or(0.0, |t| t.total());
        it.lanes.push(run);
    }
    tr.exit();
    it.host_ns = t0.elapsed().as_nanos() as u64;
    it
}

struct Setup {
    nets: Vec<Net>,
    lanes: Vec<Lane>,
}

fn setup(args: &Args, sim: &TimelineSim) -> Setup {
    let (specs, algs) = workload_mix(&args.workload);
    let nets: Vec<Net> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| generate(spec, net_seed(args.seed, i)))
        .collect();
    let mut lanes = Vec::new();
    for &alg in &algs {
        for (n, net) in nets.iter().enumerate() {
            lanes.push(Lane {
                net: n,
                alg,
                engine: CdmaEngine::new(sim.config(), alg).with_threads(1),
                streams: vec![WindowedStream::default(); net.tensors.len()],
                lines: vec![Vec::new(); net.tensors.len()],
                restored: Vec::new(),
            });
        }
    }
    // Warm-up: one round trip of each lane's first tensor settles lazy
    // state (kernel-tier detection, codec tables) before timing.
    for lane in &mut lanes {
        let data = &nets[lane.net].tensors[0];
        lane.engine
            .compress_lines_into(data, &mut lane.streams[0], &mut lane.lines[0]);
        lane.streams[0]
            .decompress_into(&lane.engine.codec(), &mut lane.restored)
            .expect("warm-up round trip decodes");
    }
    Setup { nets, lanes }
}

pub fn run(args: &Args) -> Report {
    let sim = TimelineSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
    );
    let (Setup { nets, mut lanes }, setup_s) = timed_setup(SETUP_REPS, || setup(args, &sim), drop);
    let mut report = Report::default();
    report.metrics.set("setup_s", setup_s);

    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut off = Tracer::new(false);
    let untraced = measure(&mut lanes, &nets, &sim, &mut off, budget, &mut report);
    report
        .notes
        .push(iteration_note(&untraced, |i| i.host_ns as f64));
    if !args.trace {
        timed_metrics(&untraced, &mut report.metrics);
        return report;
    }
    let mut tr = Tracer::new(true);
    let traced = measure(&mut lanes, &nets, &sim, &mut tr, budget, &mut report);
    traced_metrics(args, &untraced, &traced, &nets, &lanes, &tr, &mut report);
    report
}

/// Iterates for `budget` (at least twice), checking that the modelled
/// figures repeat bit for bit across iterations.
fn measure(
    lanes: &mut [Lane],
    nets: &[Net],
    sim: &TimelineSim,
    tr: &mut Tracer,
    budget: Duration,
    report: &mut Report,
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < 2 || start.elapsed() < budget {
        let it = iterate(lanes, nets, sim, tr, &mut report.outcomes);
        if let Some(first) = iters.first() {
            let same = it.modelled_s.to_bits() == first.modelled_s.to_bits()
                && it.wire == first.wire
                && it.uncompressed == first.uncompressed;
            report.gate(same, || {
                format!(
                    "modelled step {} s / wire {} B differ from the first iteration's {} s / {} B",
                    it.modelled_s, it.wire, first.modelled_s, first.wire
                )
            });
        }
        // Only the last iteration's timelines feed the ledger; dropping
        // the others keeps memory flat however long the run.
        if let Some(prev) = iters.last_mut() {
            prev.lanes.clear();
        }
        iters.push(it);
    }
    iters
}

fn med(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iters.iter().map(f).collect::<Vec<_>>())
}

fn timed_metrics(iters: &[Iteration], m: &mut Metrics) {
    let lat: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.latencies_us.iter().copied())
        .collect();
    // A 30 s run holds 350–1200 round trips and p99 needs 1000, so the
    // tail is capped at p95 and every run reports the same percentile.
    let tail = Tail::of(&lat, 95.0);
    m.set("p50_us", tail.p50);
    m.set("p99_us", tail.tail);
    m.set("e2e.latency_samples", tail.count as f64);
    m.set("e2e.tail_pct", tail.tail_pct);
    // Throughputs and per-iteration host time are totals over the run:
    // the host's speed swings between two modes over tens of
    // milliseconds, and a median flips with the mix of the two.
    let sum = |f: fn(&Iteration) -> u64| iters.iter().map(f).sum::<u64>() as f64;
    m.set(
        "capacity_rps",
        sum(|i| i.round_trips) / sum(|i| i.host_ns) * 1e9,
    );
    m.set("offload_gbps", sum(|i| i.bytes) / sum(|i| i.codec_ns));
    m.set("sim_host_ms", sum(|i| i.sim_ns) / iters.len() as f64 / 1e6);
    m.set("modelled_step_ms", iters[0].modelled_s * 1e3);
    m.set(
        "wire_ratio",
        iters[0].uncompressed as f64 / iters[0].wire as f64,
    );
}

/// Per-layer metrics of the traced run, plus the ledger and trace files.
fn traced_metrics(
    args: &Args,
    untraced: &[Iteration],
    traced: &[Iteration],
    nets: &[Net],
    lanes: &[Lane],
    tr: &Tracer,
    report: &mut Report,
) {
    let m = &mut report.metrics;
    timed_metrics(traced, m);
    let base = med(untraced, |i| i.host_ns as f64);
    m.set(
        "trace.overhead_frac",
        med(traced, |i| i.host_ns as f64) / base - 1.0,
    );
    m.set("trace.spans", tr.spans().len() as f64);

    let per_iter = |name: &str| tr.total_ns(name).0 as f64 / traced.len() as f64;
    m.set(
        "core.compress_lines_ms",
        per_iter("core.compress_lines") / 1e6,
    );
    let lines: usize = lanes.iter().flat_map(|l| &l.lines).map(Vec::len).sum();
    m.set("core.lines", lines as f64);

    let last = traced.last().expect("at least two traced iterations");
    let dma_lines: u64 = lanes
        .iter()
        .map(|l| {
            let batch = nets[l.net].spec.batch() as u64;
            l.lines[1..]
                .iter()
                .map(|v| v.len() as u64 * batch)
                .sum::<u64>()
        })
        .sum();
    let dma: Vec<&OffloadSimResult> = last.lanes.iter().flat_map(|r| r.dma.iter()).collect();
    let busy: f64 = dma.iter().map(|r| r.link_busy).sum();
    let total: f64 = dma.iter().map(|r| r.total_time).sum();
    m.set("gpusim.dma.lines", dma_lines as f64);
    m.set(
        "gpusim.dma.host_ns_per_line",
        per_iter("gpusim.dma") / dma_lines as f64,
    );
    m.set("gpusim.dma.modelled_ms", total * 1e3);
    m.set("gpusim.dma.link_util", busy / total);

    let events: u64 = last
        .lanes
        .iter()
        .filter_map(|r| r.timeline.as_ref())
        .map(StepTimeline::events_processed)
        .sum();
    let (compute, stall) = last
        .lanes
        .iter()
        .filter_map(|r| r.timeline.as_ref())
        .flat_map(|t| t.stages())
        .fold((0.0, 0.0), |(c, s), st| (c + st.compute, s + st.stall()));
    let tl_ns = per_iter("vdnn.timeline");
    m.set("vdnn.timeline.host_ms", tl_ns / 1e6);
    m.set("vdnn.timeline.events", events as f64);
    m.set("vdnn.timeline.ns_per_event", tl_ns / events as f64);
    m.set("vdnn.timeline.modelled_compute_ms", compute * 1e3);
    m.set("vdnn.timeline.modelled_stall_ms", stall * 1e3);

    // Self time by module, over the path iterations only (the codec
    // probe below is timed without spans).
    for (name, share) in tr.module_shares() {
        m.set(name, share);
    }

    codec_probe(args, nets, m);
    ledger(args, nets, lanes, last, report);
    write_traces(args, nets, lanes, last, tr);
}

/// Codec throughput against memcpy on the workload's own buffers:
/// `WindowedStream::recompress` / `decompress_into` straight, with no
/// engine or line table around them.
fn codec_probe(args: &Args, nets: &[Net], m: &mut Metrics) {
    let (_, algs) = workload_mix(&args.workload);
    let bytes: f64 = nets
        .iter()
        .flat_map(|n| &n.tensors)
        .map(|t| t.len() as f64 * 4.0)
        .sum();
    let mut copy = Vec::new();
    let mut memcpy = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for t in nets.iter().flat_map(|n| &n.tensors) {
            copy.clear();
            copy.extend_from_slice(t);
            std::hint::black_box(&copy);
        }
        memcpy.push(bytes / t0.elapsed().as_nanos() as f64);
    }
    let memcpy = median(&memcpy);
    m.set("compress.memcpy_gbps", memcpy);

    let mut stream = WindowedStream::default();
    let mut out = Vec::new();
    for &alg in &algs {
        let codec = alg.codec();
        let l = label(alg);
        let (mut c_ns, mut d_ns, mut wire, mut tags) = (0u64, 0u64, 0u64, [0u64; 3]);
        for t in nets.iter().flat_map(|n| &n.tensors) {
            let t0 = Instant::now();
            stream.recompress(&codec, t, WINDOW_BYTES);
            c_ns += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let ok = stream.decompress_into(&codec, &mut out).is_ok();
            d_ns += t0.elapsed().as_nanos() as u64;
            assert!(ok && bit_identical(&out, t), "codec probe round trip");
            wire += stream.compressed_bytes() as u64;
            if alg == Algorithm::Adaptive {
                // AD's documented wire format: one tag byte per window.
                for w in stream.windows() {
                    if let Some(&tag) = w.first() {
                        tags[usize::from(tag.min(2))] += 1;
                    }
                }
            }
        }
        let cg = bytes / c_ns as f64;
        let dg = bytes / d_ns as f64;
        m.set(format!("compress.{l}.compress_gbps"), cg);
        m.set(format!("compress.{l}.decompress_gbps"), dg);
        m.set(format!("compress.{l}.compress_x_memcpy"), cg / memcpy);
        m.set(format!("compress.{l}.decompress_x_memcpy"), dg / memcpy);
        m.set(format!("compress.{l}.ratio"), bytes / wire as f64);
        if alg == Algorithm::Adaptive {
            let n = tags.iter().sum::<u64>().max(1) as f64;
            for (i, tag) in ["rle", "zvc", "deflate"].iter().enumerate() {
                m.set(format!("compress.ad.tag_share.{tag}"), tags[i] as f64 / n);
            }
        }
    }
}

/// The per-DNN-layer ledger of the last traced iteration. Modelled
/// columns come from `StepTimeline::stages()`: a layer's stages are its
/// forward and backward stage, its gap the idle time before each (the
/// serial head prefetch sits in the gap before the first backward
/// stage). They must add up to the step total within 1e-9 s.
fn ledger(args: &Args, nets: &[Net], lanes: &[Lane], last: &Iteration, report: &mut Report) {
    let mut text = String::new();
    for (lane, run) in lanes.iter().zip(&last.lanes) {
        let net = &nets[lane.net];
        let tl = run.timeline.as_ref().expect("every pass simulates a step");
        let layers = net.spec.layers();
        let mut compute = vec![0.0; layers.len()];
        let mut stall = vec![0.0; layers.len()];
        let mut gap = vec![0.0; layers.len()];
        let mut prev_end = 0.0;
        for st in tl.stages() {
            compute[st.layer] += st.compute;
            stall[st.layer] += st.stall();
            gap[st.layer] += st.start - prev_end;
            prev_end = st.end;
        }
        let _ = writeln!(
            text,
            "ledger {} {} (batch {}): step {:.6} ms",
            net.spec.name(),
            label(lane.alg),
            net.spec.batch(),
            tl.total() * 1e3
        );
        let _ = writeln!(
            text,
            "{:<16} {:>12} {:>8} {:>7} {:>11} {:>11} {:>9} {:>10} {:>9} {:>9}",
            "layer",
            "act_bytes",
            "density",
            "ratio",
            "comp_us",
            "decomp_us",
            "dma_ms",
            "compute_ms",
            "stall_ms",
            "gap_ms"
        );
        let mut sum = 0.0;
        for (i, layer) in layers.iter().enumerate() {
            let k = i + 1;
            let (u, c) = lane.lines[k]
                .iter()
                .fold((0u64, 0u64), |(u, c), &(lu, lc)| {
                    (u + lu as u64, c + lc as u64)
                });
            sum += compute[i] + stall[i] + gap[i];
            let _ = writeln!(
                text,
                "{:<16} {:>12} {:>8.4} {:>7.3} {:>11.1} {:>11.1} {:>9.4} {:>10.4} {:>9.4} {:>9.4}",
                layer.name,
                layer.activation_bytes(net.spec.batch()),
                net.density[k],
                u as f64 / c as f64,
                run.compress_ns[k] as f64 / 1e3,
                run.decompress_ns[k] as f64 / 1e3,
                run.dma[i].total_time * 1e3,
                compute[i] * 1e3,
                stall[i] * 1e3,
                gap[i] * 1e3
            );
        }
        let err = (sum - tl.total()).abs();
        let _ = writeln!(text, "sum(compute+stall+gap) - total = {err:.3e} s\n");
        report.gate(err <= 1e-9, || {
            format!(
                "ledger of {} {}: columns sum to {sum} s, step total is {} s",
                net.spec.name(),
                label(lane.alg),
                tl.total()
            )
        });
    }
    write_result(args, "ledger.txt", &text);
    report.notes.push(text);
}

/// Host spans and the modelled (virtual-time) stage timelines, as Chrome
/// trace-event files. The virtual file depends only on the seed.
fn write_traces(args: &Args, nets: &[Net], lanes: &[Lane], last: &Iteration, tr: &Tracer) {
    write_result(args, "host.trace.json", &tr.chrome_json(&args.workload));
    let mut v = ChromeTrace::new();
    for (p, (lane, run)) in lanes.iter().zip(&last.lanes).enumerate() {
        let pid = p as u32 + 1;
        let net = &nets[lane.net];
        v.process(
            pid,
            &format!("{} {} (modelled)", net.spec.name(), label(lane.alg)),
        );
        v.thread(pid, 1, "compute");
        v.thread(pid, 2, "transfer");
        let tl = run.timeline.as_ref().expect("every pass simulates a step");
        for st in tl.stages() {
            let phase = match st.phase {
                Phase::Forward => "fwd",
                Phase::Backward => "bwd",
            };
            let name = format!("{} {phase}", net.spec.layers()[st.layer].name);
            v.complete(pid, 1, &name, st.start * 1e6, st.compute * 1e6, "{}");
            if st.transfer > 0.0 {
                v.complete(pid, 2, &name, st.start * 1e6, st.transfer * 1e6, "{}");
            }
        }
    }
    write_result(args, "virtual.trace.json", &v.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(zoo::alexnet(), net_seed(1, 0));
        let b = generate(zoo::alexnet(), net_seed(1, 0));
        let c = generate(zoo::alexnet(), net_seed(2, 0));
        assert_eq!(a.tensors.len(), zoo::alexnet().layers().len() + 1);
        assert!(a
            .tensors
            .iter()
            .zip(&b.tensors)
            .all(|(x, y)| bit_identical(x, y)));
        assert!(a
            .tensors
            .iter()
            .zip(&c.tensors)
            .any(|(x, y)| !bit_identical(x, y)));
        assert_ne!(net_seed(1, 0), net_seed(1, 1));
    }
}
