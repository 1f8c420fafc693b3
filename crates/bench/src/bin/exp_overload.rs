//! exp_overload: overload-protection chaos harness.
//!
//! An open-loop load sweep over a simulated queue, deterministic: a G/D/c
//! queue simulation in integer microseconds drives the *real*
//! `AimdLimit`/`BrownoutController` state machines with open-loop arrivals
//! (no client backpressure) at 0.4–2.0× the saturation rate, adaptive vs
//! static admission. The sweep asserts the overload properties: adaptive
//! goodput plateaus past saturation (≥90% of its sweep peak at 2× while
//! the static queue collapses), the admitted p99 stays bounded through a
//! spike, the ladder actually engages during the spike, and the
//! controller recovers to rung 0 after it.
//!
//! That degraded rungs change cost, never labels, is `tests/serve.rs`'s
//! to check (`pinned_no_linkage_rung_…`, `cold_cache_only_rung_…`).
//! The sweep is exported to `results/overload.jsonl` through the
//! observability layer's `JsonlSink`. `--smoke` shrinks the simulated
//! horizon but keeps every assertion.

use kglink_bench::print_markdown;
use kglink_obs::{Histogram, JsonlSink, Tracer};
use kglink_serve::{AimdConfig, AimdLimit, BrownoutConfig, BrownoutController, DegradationRung};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// The open-loop queue simulation.
// ---------------------------------------------------------------------------

/// Simulated service times per rung, µs. Degradation buys real capacity:
/// a cache-only request costs a quarter of full retrieval, a no-linkage
/// request a tenth.
const FULL_US: u64 = 1_000;
const CACHE_ONLY_US: u64 = 250;
const NO_LINKAGE_US: u64 = 100;
/// A completion is *goodput* when its end-to-end latency meets this SLA.
const SLA_US: u64 = 10_000;
const WORKERS: usize = 4;
/// Static queue sized for burst absorption — exactly the sizing that
/// collapses goodput under sustained overload.
const STATIC_CAPACITY: usize = 256;

fn aimd_config() -> AimdConfig {
    AimdConfig {
        min_limit: 2,
        max_limit: 64,
        increase: 2,
        decrease_factor: 0.5,
        target_sojourn_us: 2_000,
        window: 16,
    }
}

fn brownout_config() -> BrownoutConfig {
    BrownoutConfig {
        enter_cache_only_us: 3_000,
        enter_no_linkage_us: 8_000,
        exit_us: 1_000,
        hysteresis: 8,
    }
}

struct SimOut {
    arrivals: usize,
    admitted: usize,
    shed: usize,
    ok: usize,
    latency: Histogram,
    rung_served: [u64; 3],
    final_rung: DegradationRung,
    goodput_per_s: f64,
}

/// FIFO G/D/c queue over `WORKERS` servers. `adaptive` drives the real
/// controller state machines exactly as the serve crate's workers do:
/// one sojourn observation per dequeue, limit resize + oldest-first trim
/// when an AIMD window closes, rung selection per request.
fn run_sim(arrival_times: &[u64], horizon_us: u64, adaptive: bool) -> SimOut {
    let mut free: Vec<u64> = vec![0; WORKERS];
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut aimd = adaptive.then(|| AimdLimit::new(aimd_config()));
    let mut brownout = adaptive.then(|| BrownoutController::new(brownout_config()));
    let mut limit = aimd
        .as_ref()
        .map_or(STATIC_CAPACITY, |a| a.limit().min(STATIC_CAPACITY));
    let mut out = SimOut {
        arrivals: arrival_times.len(),
        admitted: 0,
        shed: 0,
        ok: 0,
        latency: Histogram::new(),
        rung_served: [0; 3],
        final_rung: DegradationRung::Full,
        goodput_per_s: 0.0,
    };
    let drain = |now: u64,
                 free: &mut Vec<u64>,
                 queue: &mut VecDeque<u64>,
                 limit: &mut usize,
                 aimd: &mut Option<AimdLimit>,
                 brownout: &mut Option<BrownoutController>,
                 out: &mut SimOut| {
        loop {
            let idx = (0..free.len())
                .min_by_key(|&i| free[i])
                .expect("workers > 0");
            if queue.is_empty() || free[idx] > now {
                break;
            }
            let arrival = queue.pop_front().expect("checked non-empty");
            let start = free[idx].max(arrival);
            let sojourn = start - arrival;
            if let Some(a) = aimd.as_mut() {
                if a.observe(sojourn).is_some() {
                    *limit = a.limit().min(STATIC_CAPACITY);
                    while queue.len() > *limit {
                        // Oldest-first trim, mirroring `trim_to_limit`.
                        queue.pop_front();
                        out.shed += 1;
                    }
                }
            }
            let rung = brownout
                .as_mut()
                .map_or(DegradationRung::Full, |b| b.observe(sojourn));
            let service = match rung {
                DegradationRung::Full => FULL_US,
                DegradationRung::CacheOnly => CACHE_ONLY_US,
                DegradationRung::NoLinkage => NO_LINKAGE_US,
            };
            free[idx] = start + service;
            let latency = start + service - arrival;
            out.latency.record(latency);
            out.rung_served[rung.level() as usize] += 1;
            if latency <= SLA_US {
                out.ok += 1;
            }
        }
    };
    for &t in arrival_times {
        drain(
            t,
            &mut free,
            &mut queue,
            &mut limit,
            &mut aimd,
            &mut brownout,
            &mut out,
        );
        if queue.len() >= limit {
            out.shed += 1;
            continue;
        }
        queue.push_back(t);
        out.admitted += 1;
    }
    drain(
        u64::MAX,
        &mut free,
        &mut queue,
        &mut limit,
        &mut aimd,
        &mut brownout,
        &mut out,
    );
    out.final_rung = brownout
        .as_ref()
        .map_or(DegradationRung::Full, |b| b.rung());
    out.goodput_per_s = out.ok as f64 / (horizon_us as f64 / 1e6);
    out
}

/// Deterministic open-loop arrivals at `rate_per_s` over `[from, to)` µs.
fn arrivals_at(rate_per_s: f64, from_us: u64, to_us: u64, into: &mut Vec<u64>) {
    let gap = (1e6 / rate_per_s) as u64;
    let gap = gap.max(1);
    let mut t = from_us;
    while t < to_us {
        into.push(t);
        t += gap;
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tracer = Tracer::enabled();

    // -----------------------------------------------------------------
    // The load sweep.
    // -----------------------------------------------------------------
    let horizon_us: u64 = if smoke { 1_000_000 } else { 4_000_000 };
    let saturation = WORKERS as f64 * 1e6 / FULL_US as f64;
    let multipliers = [0.4, 0.7, 1.0, 1.4, 2.0];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut adaptive_goodput: Vec<f64> = Vec::new();
    let mut static_goodput: Vec<f64> = Vec::new();
    for &mult in &multipliers {
        let mut times = Vec::new();
        arrivals_at(mult * saturation, 0, horizon_us, &mut times);
        for adaptive in [false, true] {
            let out = run_sim(&times, horizon_us, adaptive);
            tracer.event_with(
                "overload.sweep",
                vec![
                    (
                        "mode",
                        if adaptive { "adaptive" } else { "static" }.to_string(),
                    ),
                    ("load_x", format!("{mult:.1}")),
                    ("arrivals", out.arrivals.to_string()),
                    ("admitted", out.admitted.to_string()),
                    ("shed", out.shed.to_string()),
                    ("goodput_per_s", format!("{:.1}", out.goodput_per_s)),
                    ("p50_us", out.latency.p50().to_string()),
                    ("p99_us", out.latency.p99().to_string()),
                    ("served_full", out.rung_served[0].to_string()),
                    ("served_cache_only", out.rung_served[1].to_string()),
                    ("served_no_linkage", out.rung_served[2].to_string()),
                ],
            );
            rows.push(vec![
                format!("{mult:.1}x"),
                if adaptive { "adaptive" } else { "static" }.to_string(),
                out.arrivals.to_string(),
                out.shed.to_string(),
                format!("{:.0}", out.goodput_per_s),
                out.latency.p50().to_string(),
                out.latency.p99().to_string(),
                format!(
                    "{}/{}/{}",
                    out.rung_served[0], out.rung_served[1], out.rung_served[2]
                ),
            ]);
            if adaptive {
                adaptive_goodput.push(out.goodput_per_s);
            } else {
                static_goodput.push(out.goodput_per_s);
            }
        }
    }
    print_markdown(
        &format!(
            "Open-loop overload sweep ({WORKERS} workers, saturation {saturation:.0} req/s, \
             SLA {SLA_US}us, horizon {:.1}s)",
            horizon_us as f64 / 1e6
        ),
        &[
            "load",
            "admission",
            "arrivals",
            "shed",
            "goodput/s",
            "p50 us",
            "p99 us",
            "full/cache/none",
        ],
        &rows,
    );

    let peak = adaptive_goodput.iter().cloned().fold(0.0, f64::max);
    let at_2x = *adaptive_goodput.last().expect("sweep ran");
    let static_at_2x = *static_goodput.last().expect("sweep ran");
    println!(
        "goodput at 2.0x: adaptive {at_2x:.0}/s (peak {peak:.0}/s), static {static_at_2x:.0}/s"
    );
    assert!(
        at_2x >= 0.9 * peak,
        "adaptive goodput must plateau past saturation: {at_2x:.0}/s < 90% of peak {peak:.0}/s"
    );
    assert!(
        static_at_2x < 0.5 * at_2x,
        "the static queue should collapse at 2x saturation (got {static_at_2x:.0}/s vs \
         adaptive {at_2x:.0}/s) — if it doesn't, this harness is not stressing anything"
    );

    // Spike profile: healthy base load with a 3x burst in the middle.
    // Adaptive admission must keep the admitted p99 bounded, the ladder
    // must actually engage, and the controller must walk back to rung 0
    // before the horizon ends.
    let spike_from = horizon_us / 4;
    let spike_to = horizon_us / 2;
    let mut times = Vec::new();
    arrivals_at(0.5 * saturation, 0, spike_from, &mut times);
    arrivals_at(3.0 * saturation, spike_from, spike_to, &mut times);
    arrivals_at(0.5 * saturation, spike_to, horizon_us, &mut times);
    let adaptive_spike = run_sim(&times, horizon_us, true);
    let static_spike = run_sim(&times, horizon_us, false);
    for (mode, out) in [("adaptive", &adaptive_spike), ("static", &static_spike)] {
        tracer.event_with(
            "overload.spike",
            vec![
                ("mode", mode.to_string()),
                ("p99_us", out.latency.p99().to_string()),
                ("shed", out.shed.to_string()),
                ("goodput_per_s", format!("{:.1}", out.goodput_per_s)),
                ("final_rung", out.final_rung.name().to_string()),
                ("served_cache_only", out.rung_served[1].to_string()),
                ("served_no_linkage", out.rung_served[2].to_string()),
            ],
        );
    }
    println!(
        "spike: adaptive p99 {}us (static {}us), degraded completions {}, final rung {}",
        adaptive_spike.latency.p99(),
        static_spike.latency.p99(),
        adaptive_spike.rung_served[1] + adaptive_spike.rung_served[2],
        adaptive_spike.final_rung.name()
    );
    assert!(
        adaptive_spike.latency.p99() <= 5 * SLA_US,
        "admitted p99 must stay bounded through the spike: {}us",
        adaptive_spike.latency.p99()
    );
    assert!(
        adaptive_spike.latency.p99() < static_spike.latency.p99(),
        "adaptive p99 ({}) must beat the static queue's ({})",
        adaptive_spike.latency.p99(),
        static_spike.latency.p99()
    );
    assert!(
        adaptive_spike.rung_served[1] + adaptive_spike.rung_served[2] > 0,
        "the degradation ladder never engaged during the spike"
    );
    assert_eq!(
        adaptive_spike.final_rung,
        DegradationRung::Full,
        "the controller must recover to rung 0 after the spike"
    );

    // -----------------------------------------------------------------
    // Export the sweep for offline inspection.
    // -----------------------------------------------------------------
    std::fs::create_dir_all("results").expect("create results/");
    let mut sink =
        JsonlSink::create("results/overload.jsonl").expect("open results/overload.jsonl");
    let lines = sink.export(&tracer).expect("export sweep events");
    eprintln!("[overload] wrote {lines} events to results/overload.jsonl");

    println!("exp_overload: all assertions passed");
}
