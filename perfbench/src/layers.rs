//! The traced run and its per-layer metrics.
//!
//! 1. Set up once, recording every warm-up request.
//! 2. Alternate traced and untraced slices of the timed phase.  In traced
//!    slices each request's root span is the client round trip, tagged
//!    with the `X-Request-Id` the server returned; its child spans are the
//!    engine phases (cache_lookup, plan, index_build, solve, certify,
//!    render) the server recorded under that id, read in-process from
//!    `ServerHandle::service().traces()`.  The difference in end-to-end
//!    metrics between the two kinds of slice is the tracing overhead.
//! 3. Right after the first traced slice, replay the warm-up plus a prefix
//!    of that slice, in send order, against a fresh `Service` loaded
//!    through `Catalog`, timing `Parser::advance`, `Json::parse`,
//!    `Service::handle` and `write_response` around each; then probe, on
//!    the replay service, every solver class and layer the workload's
//!    traffic did not reach, so each layer metric is measured on every
//!    workload (see `README.md`), and time `HashGrid::build` and
//!    `for_each_within` directly.
//!
//! Self time is a span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mrs_core::engine::{Phase as EnginePhase, QueryTrace};
use mrs_geom::{HashGrid, Point};
use mrs_server::http::{write_response, ParseStep, Parser, Request, Response};
use mrs_server::{Json, Service};
use rand::prelude::*;

use crate::common::{server_config, Counters, Shape, Spec, LINE, PLANAR, SOLVERS};
use crate::load::{Kind, Rec, Tally};
use crate::report::{mean, ms, quantile, ratio, us, Metrics, Outcome};
use crate::{print_report, Args, Phase, Setup, Workload, WorkloadName};

/// The traced run alternates this many traced and untraced slices of
/// `seconds / SLICES` each, so machine drift hits both sides alike.
const SLICES: usize = 4;

/// Requests of the first traced slice replayed in-process, per workload:
/// enough for stable medians, few enough that the replay stays a few
/// seconds.
fn replay_limit(workload: WorkloadName) -> usize {
    match workload {
        WorkloadName::CachedZipf => 20_000,
        WorkloadName::SolveMix => 300,
        WorkloadName::UpdateMix => 1_500,
    }
}

/// Points of the line prefix the dynamic-ball and mutation probes load,
/// so a probe never pays a full-size tracker build or compaction.
const PROBE_LINE_POINTS: usize = 5_000;
/// The probe dataset's catalog name.
const PROBE_LINE: &str = "probe1d";

/// One request replayed in-process.
struct Replayed {
    kind: Kind,
    path: &'static str,
    start: Duration,
    parse: Duration,
    json: Duration,
    handle: Duration,
    write: Duration,
    request_bytes: usize,
    response_bytes: usize,
    traces: Vec<QueryTrace>,
}

/// The sum of a trace's engine phases.
fn engine_total(traces: &[QueryTrace]) -> Duration {
    traces.iter().map(QueryTrace::phase_total).sum()
}

/// The fresh service the replay and the probes run against.
struct Replay {
    service: Service,
    t0: Instant,
    out: Vec<Replayed>,
}

impl Replay {
    /// A fresh service with both datasets loaded through its `Catalog`;
    /// returns it with the load time.
    fn new(line_csv: &str, planar_csv: &str) -> Result<(Replay, Duration), String> {
        let service = Service::new(server_config());
        let start = Instant::now();
        service.catalog().load_line_csv(LINE, line_csv).map_err(|e| e.to_string())?;
        service.catalog().load_planar_csv(PLANAR, planar_csv).map_err(|e| e.to_string())?;
        let load = start.elapsed();
        Ok((Replay { service, t0: Instant::now(), out: Vec::new() }, load))
    }

    /// Parses, handles and writes one request, timing each layer.
    fn send(&mut self, path: &'static str, body: &str, kind: Kind) -> Result<&Replayed, String> {
        let mut buf = format!(
            "POST {path} HTTP/1.1\r\nHost: mrs\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let request_bytes = buf.len();
        let t0 = Instant::now();
        let request: Request = match Parser::new().advance(&mut buf) {
            ParseStep::Complete(frame) => frame.to_request(&buf),
            other => return Err(format!("replay: {path} did not parse: {other:?}")),
        };
        let t1 = Instant::now();
        if kind != Kind::Mutate {
            black_box(Json::parse(request.body_text().unwrap_or("")).map_err(|e| e.to_string())?);
        }
        let t2 = Instant::now();
        let response: Response = self.service.handle(&request);
        let t3 = Instant::now();
        let mut out = Vec::with_capacity(response.body.len() + 256);
        write_response(&mut out, &response, true).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        if !response.is_success() {
            return Err(format!(
                "replay: {path} answered {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        let rid = response
            .headers
            .iter()
            .find(|(name, _)| *name == "X-Request-Id")
            .map_or("", |(_, v)| v.as_str());
        let traces = self.service.traces().for_request(rid);
        self.out.push(Replayed {
            kind,
            path,
            start: t0.duration_since(self.t0),
            parse: t1 - t0,
            json: t2 - t1,
            handle: t3 - t2,
            write: t4 - t3,
            request_bytes,
            response_bytes: out.len(),
            traces,
        });
        Ok(self.out.last().expect("just pushed"))
    }
}

/// The per-layer figures measured directly, and those the probes fill in
/// where traffic left a gap.
#[derive(Default)]
struct Probed {
    catalog_load: Duration,
    grid_build_ms: f64,
    ns_per_candidate: f64,
    solve_ms: BTreeMap<&'static str, f64>,
    build_s: BTreeMap<&'static str, f64>,
    batch_per_length_ms: Option<f64>,
    mutate_handles: Vec<Duration>,
    compaction_ms: Option<f64>,
    cache_lookup_us: Option<f64>,
}

/// The Solve phase of the single trace a probe query left.
fn solve_phase(replayed: &Replayed) -> f64 {
    ms(replayed.traces.iter().map(|t| t.phase(EnginePhase::Solve)).sum())
}

/// Runs the probes for every layer `live` (the traced traffic and the
/// warm-up) did not reach.
fn probe(
    replay: &mut Replay,
    line_csv: &str,
    live: &[&Rec],
    first_query: &[(&'static str, Duration)],
) -> Result<Probed, String> {
    let mut probed = Probed::default();
    let sent = |kind: Kind| live.iter().any(|r| r.kind == kind);
    let line_prefix: String =
        line_csv.lines().take(PROBE_LINE_POINTS).flat_map(|l| [l, "\n"]).collect();
    replay.service.catalog().load_line_csv(PROBE_LINE, &line_prefix).map_err(|e| e.to_string())?;
    for solver in SOLVERS {
        if sent(Kind::Query(solver)) {
            continue;
        }
        let spec = match solver {
            "exact-disk-2d" | "approx-static-ball" => {
                Spec { solver, shape: Shape::Ball(crate::solve::STATIC_RADIUS), line: false }
            }
            "exact-rect-2d" | "exact-colored-rect-2d" => {
                Spec { solver, shape: Shape::Box(3.0, 2.0), line: false }
            }
            "dynamic-ball" => Spec { solver, shape: Shape::Ball(12.5), line: true },
            _ => Spec { solver, shape: Shape::Interval(25.0), line: true },
        };
        let mut body = spec.body(false);
        if solver == "dynamic-ball" {
            body = body.replace(LINE, PROBE_LINE);
        }
        let first = replay.send("/query", &body, Kind::Query(solver))?;
        let first_handle = first.handle;
        if !first_query.iter().any(|(name, _)| *name == solver)
            && matches!(solver, "approx-static-ball" | "dynamic-ball")
        {
            probed.build_s.insert(solver, first_handle.as_secs_f64());
        }
        // The second query runs on the built structures.
        let second = replay.send("/query", &body, Kind::Query(solver))?;
        probed.solve_ms.insert(solver, solve_phase(second));
    }
    if !sent(Kind::Batch) {
        let queries: Vec<String> = (0..crate::solve::BATCH_LENGTHS)
            .map(|i| {
                format!(
                    r#"{{"solver":"batched-interval-1d","shape":{{"interval":{}}}}}"#,
                    10.0 + 3.0 * i as f64
                )
            })
            .collect();
        let body =
            format!(r#"{{"dataset":"{LINE}","cache":false,"queries":[{}]}}"#, queries.join(","));
        let batch = replay.send("/batch", &body, Kind::Batch)?;
        probed.batch_per_length_ms = Some(solve_phase(batch) / crate::solve::BATCH_LENGTHS as f64);
    }
    if !sent(Kind::Mutate) {
        // Insert/delete rounds of `update::RECORDS` records on the probe
        // line until the delta passes the compaction threshold.
        let mut round = 0u64;
        while replay.service.catalog().get(PROBE_LINE).map_or(0, |d| d.compactions()) == 0
            && round < 64
        {
            let xs: Vec<String> = (0..crate::update::RECORDS)
                .map(|i| format!("{}.123456737", round * 1000 + i as u64))
                .collect();
            let insert: String = xs.iter().map(|x| format!("{x},1.5\n")).collect();
            let handle = replay.send("/datasets/probe1d/insert", &insert, Kind::Mutate)?.handle;
            probed.mutate_handles.push(handle);
            let delete: String = xs.iter().map(|x| format!("{x}\n")).collect();
            let handle = replay.send("/datasets/probe1d/delete", &delete, Kind::Mutate)?.handle;
            probed.mutate_handles.push(handle);
            round += 1;
        }
        let compaction = replay
            .service
            .catalog()
            .get(PROBE_LINE)
            .map_or(Duration::ZERO, |d| d.compaction_time());
        probed.compaction_ms = Some(ms(compaction));
    }
    if !live.iter().any(|r| cache_on(r) && !r.traces.is_empty()) {
        let body =
            Spec { solver: "exact-rect-2d", shape: Shape::Box(2.5, 2.5), line: false }.body(true);
        let miss = replay.send("/query", &body, Kind::Query("exact-rect-2d"))?;
        probed.cache_lookup_us =
            Some(us(miss.traces.iter().map(|t| t.phase(EnginePhase::CacheLookup)).sum()));
    }
    Ok(probed)
}

/// `true` unless the request turned the answer cache off.
fn cache_on(rec: &Rec) -> bool {
    !rec.body.contains(r#""cache":false"#)
}

/// Times `HashGrid::build` and `for_each_within` directly on the planar
/// points, at radii drawn from the exact-disk range; returns
/// `(build_ms, ns_per_candidate)`.
fn kernel_probe(planar_csv: &str, seed: u64) -> (f64, f64) {
    let points: Vec<Point<2>> = planar_csv
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(',');
            let x = fields.next()?.parse().ok()?;
            let y = fields.next()?.parse().ok()?;
            Some(Point::new([x, y]))
        })
        .collect();
    let mut builds = Vec::new();
    let mut grid = None;
    for _ in 0..5 {
        let start = Instant::now();
        grid = Some(black_box(HashGrid::build(1.0, &points)));
        builds.push(ms(start.elapsed()));
    }
    let grid = grid.expect("five builds");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E1D);
    let queries: Vec<(Point<2>, f64)> = (0..20_000)
        .map(|_| (points[rng.gen_range(0..points.len())], rng.gen_range(0.3..0.5)))
        .collect();
    let mut per_candidate = Vec::new();
    for _ in 0..5 {
        let mut candidates = 0usize;
        let mut hits = 0usize;
        let start = Instant::now();
        for (center, radius) in &queries {
            candidates += grid.for_each_within(center, *radius, |id| hits += id).candidates;
        }
        black_box(hits);
        per_candidate.push(start.elapsed().as_nanos() as f64 / candidates.max(1) as f64);
    }
    (quantile(&mut builds, 0.5), quantile(&mut per_candidate, 0.5))
}

/// End-to-end metrics of one phase, as a name → value map.
fn end_to_end(phase: &Phase) -> Metrics {
    let mut metrics = Metrics::default();
    phase.end_to_end(&mut metrics);
    metrics
}

/// Runs the traced benchmark and reports every per-layer metric.
pub fn run(workload: &mut Workload, args: &Args) -> Result<Outcome, String> {
    let mut setup = workload.setup(true)?;
    let before = Counters::of(setup.server().service());
    let slice = args.seconds / SLICES as f64;
    let mut traced = workload.drive(&setup, slice, true)?;
    // Only the first traced slice is replayed: later ones follow untraced
    // slices whose requests (mutations among them) were not logged.  The
    // replay and the probes run right after it, so the machine they time is
    // in the state the round trips saw, not one drifted by the later slices.
    let prefix_len = traced.recs.len().min(replay_limit(args.workload));
    let (replay_out, replayed_traffic, probed) = {
        let (line_csv, planar_csv) = workload.csv();
        let (mut replay, catalog_load) = Replay::new(line_csv, planar_csv)?;
        for rec in setup.recs.iter().chain(&traced.recs[..prefix_len]) {
            replay.send(rec.path, &rec.body, rec.kind)?;
        }
        let replayed_traffic = replay.out.len();
        let live: Vec<&Rec> = setup.recs.iter().chain(&traced.recs).collect();
        let mut probed = probe(&mut replay, line_csv, &live, &setup.first_query)?;
        probed.catalog_load = catalog_load;
        (probed.grid_build_ms, probed.ns_per_candidate) = kernel_probe(planar_csv, args.seed);
        (replay.out, replayed_traffic, probed)
    };
    let mut untraced = workload.drive(&setup, slice, false)?;
    for _ in 1..SLICES {
        traced.absorb(workload.drive(&setup, slice, true)?);
        untraced.absorb(workload.drive(&setup, slice, false)?);
    }
    let counters = Counters::of(setup.server().service()).since(&before);
    let mut check_tally = Tally::default();
    workload.verify(&setup, &mut check_tally)?;
    setup.shutdown();
    let prefix = &traced.recs[..prefix_len];

    let mut violations = Vec::new();
    let (replayed, probes) = replay_out.split_at(replayed_traffic);
    let metrics = layer_metrics(
        &setup,
        (&traced, &untraced, &counters),
        (replayed, probes, prefix),
        &probed,
        &mut violations,
    );
    let spans = write_spans(args, &setup, prefix, &replay_out);

    let named = traced.named(args.workload);
    let mut tally = traced.tally;
    tally.merge(untraced.tally);
    tally.merge(check_tally);
    print_report(args, &metrics, &named, &tally);
    for violation in violations.iter().take(8) {
        println!("  trace check failed: {violation}");
    }
    match spans {
        Ok(path) => println!("  spans written to {}", path.display()),
        Err(e) => println!("  spans not written: {e}"),
    }
    Ok(Outcome {
        correct: tally.wrong_exact == 0 && violations.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// p50 of durations in microseconds.
fn p50_us(samples: impl IntoIterator<Item = Duration>) -> f64 {
    let mut v: Vec<f64> = samples.into_iter().map(us).collect();
    quantile(&mut v, 0.5)
}

/// Every per-layer metric, from the warm-up, the traced and untraced
/// slices with the server counters over them, the replayed traffic and
/// probes with the traced prefix they replay, and the probe results.
fn layer_metrics(
    setup: &Setup,
    (traced, untraced, c): (&Phase, &Phase, &Counters),
    (replayed, probes, prefix): (&[Replayed], &[Replayed], &[Rec]),
    probed: &Probed,
    violations: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let live: Vec<&Rec> = setup.recs.iter().chain(&traced.recs).collect();
    let live_traces = || live.iter().flat_map(|r| r.traces.iter());
    // The replayed traffic, skipping the warm-up, lines up with `prefix`.
    let matched = &replayed[replayed.len() - prefix.len()..];
    let queries = || replayed.iter().filter(|r| matches!(r.kind, Kind::Query(_)));
    let all_replayed = || replayed.iter().chain(probes);

    // Consistency: engine phases ≤ Service::handle ≤ client round trip.
    for rec in &live {
        for trace in &rec.traces {
            if trace.phase_total() > rec.rtt {
                violations.push(format!(
                    "{} {}: engine phases {:?} > round trip {:?}",
                    rec.rid,
                    trace.solver,
                    trace.phase_total(),
                    rec.rtt
                ));
            }
        }
    }
    for r in all_replayed() {
        for trace in &r.traces {
            if trace.phase_total() > r.handle {
                violations.push(format!(
                    "replayed {}: engine phases {:?} > handle {:?}",
                    trace.solver,
                    trace.phase_total(),
                    r.handle
                ));
            }
        }
    }
    // The residual is the round trip minus parse + handle + write.  The
    // engine phases inside handle come from the same execution as the round
    // trip (the server's traces); only the service's own time around them,
    // parse and write come from the replay.  Taking all of handle from the
    // replay would compare two executions of a multi-millisecond solve, whose
    // run-to-run noise is larger than the residual itself.  Mutations leave
    // no trace, so they are left out for the same reason.
    let mut residuals: Vec<f64> = prefix
        .iter()
        .zip(matched)
        .filter(|(rec, _)| matches!(rec.kind, Kind::Query(_)))
        .map(|(rec, r)| {
            let handle =
                engine_total(&rec.traces) + r.handle.saturating_sub(engine_total(&r.traces));
            us(rec.rtt) - us(r.parse + handle + r.write)
        })
        .collect();
    let residual = quantile(&mut residuals, 0.5);
    if residual < 0.0 {
        violations.push(format!("runtime residual p50 {residual} µs < 0"));
    }

    // runtime (+ reactor)
    m.push("runtime.residual_p50_us", "us", residual);
    m.push("runtime.wakeups_per_request", "count", ratio(c.wakeups as f64, c.requests as f64));
    m.push(
        "runtime.coalesced_bytes_per_request",
        "B",
        ratio(c.coalesced as f64, c.requests as f64),
    );
    // http
    m.push("http.parse_us", "us", p50_us(replayed.iter().map(|r| r.parse)));
    m.push("http.write_us", "us", p50_us(replayed.iter().map(|r| r.write)));
    m.push(
        "http.request_bytes",
        "B",
        mean(&replayed.iter().map(|r| r.request_bytes as f64).collect::<Vec<_>>()),
    );
    m.push(
        "http.response_bytes",
        "B",
        mean(&replayed.iter().map(|r| r.response_bytes as f64).collect::<Vec<_>>()),
    );
    // json
    m.push(
        "json.parse_us",
        "us",
        p50_us(replayed.iter().filter(|r| r.kind != Kind::Mutate).map(|r| r.json)),
    );
    // service
    m.push("service.handle_p50_us", "us", p50_us(queries().map(|r| r.handle)));
    let line_mutations: Vec<Duration> = replayed
        .iter()
        .filter(|r| r.kind == Kind::Mutate && r.path.contains(LINE))
        .map(|r| r.handle)
        .chain(probed.mutate_handles.iter().copied())
        .collect();
    let mutate_p50 = p50_us(line_mutations.iter().copied());
    m.push("service.handle_mutate_p50_us", "us", mutate_p50);
    m.push(
        "service.self_us",
        "us",
        p50_us(queries().map(|r| r.handle.saturating_sub(engine_total(&r.traces)))),
    );
    m.push("service.render_us", "us", p50_us(live_traces().map(|t| t.phase(EnginePhase::Render))));
    // cache
    let cache = &c.cache;
    m.push("cache.hit_rate", "ratio", cache.hit_rate());
    m.push("cache.hits", "count", cache.hits as f64);
    m.push("cache.misses", "count", cache.misses as f64);
    m.push("cache.invalidations", "count", cache.invalidations as f64);
    m.push("cache.evictions", "count", cache.evictions as f64);
    m.push("cache.warmup_hits", "count", setup.warm.cache.hits as f64);
    m.push("cache.warmup_misses", "count", setup.warm.cache.misses as f64);
    let lookups: Vec<Duration> = live
        .iter()
        .filter(|r| cache_on(r))
        .flat_map(|r| r.traces.iter().map(|t| t.phase(EnginePhase::CacheLookup)))
        .collect();
    m.push("cache.lookup_us", "us", probed.cache_lookup_us.unwrap_or_else(|| p50_us(lookups)));
    // catalog
    m.push("catalog.load_ms", "ms", ms(probed.catalog_load));
    // engine
    m.push("engine.plan_us", "us", p50_us(live_traces().map(|t| t.phase(EnginePhase::Plan))));
    m.push(
        "engine.index_build_us",
        "us",
        mean(&live_traces().map(|t| us(t.phase(EnginePhase::IndexBuild))).collect::<Vec<_>>()),
    );
    m.push("engine.certify_us", "us", p50_us(live_traces().map(|t| t.phase(EnginePhase::Certify))));
    m.push("engine.index_builds", "count", c.index_builds as f64);
    // solvers
    for solver in SOLVERS {
        let traffic: Vec<f64> = live
            .iter()
            .filter(|r| r.kind == Kind::Query(solver))
            .flat_map(|r| r.traces.iter().map(|t| ms(t.phase(EnginePhase::Solve))))
            .collect();
        let value = probed.solve_ms.get(solver).copied().unwrap_or_else(|| {
            let mut traffic = traffic;
            quantile(&mut traffic, 0.5)
        });
        m.push(format!("solve.{solver}_ms"), "ms", value);
    }
    let mut per_length: Vec<f64> = live
        .iter()
        .filter(|r| r.kind == Kind::Batch && !r.traces.is_empty())
        .map(|r| {
            r.traces.iter().map(|t| ms(t.phase(EnginePhase::Solve))).sum::<f64>()
                / r.traces.len() as f64
        })
        .collect();
    m.push(
        "batched.per_length_ms",
        "ms",
        probed.batch_per_length_ms.unwrap_or_else(|| quantile(&mut per_length, 0.5)),
    );
    for solver in ["approx-static-ball", "dynamic-ball"] {
        let from_setup = setup
            .first_query
            .iter()
            .find(|(name, _)| *name == solver)
            .map(|(_, d)| d.as_secs_f64());
        let value = from_setup.or_else(|| probed.build_s.get(solver).copied()).unwrap_or(0.0);
        m.push(format!("technique1.build_s.{solver}"), "s", value);
    }
    // kernels
    let warm = &setup.warm;
    m.push(
        "kernels.candidates_per_query",
        "count",
        ratio(warm.candidates as f64, setup.warm_queries as f64),
    );
    m.push(
        "kernels.grid_cells_per_query",
        "count",
        ratio(warm.cells as f64, setup.warm_queries as f64),
    );
    m.push("kernels.ns_per_candidate", "ns", probed.ns_per_candidate);
    m.push("kernels.grid_build_ms", "ms", probed.grid_build_ms);
    // versioned
    m.push("versioned.mutate_us_per_record", "us", mutate_p50 / crate::update::RECORDS as f64);
    m.push("versioned.delta_max", "count", traced.delta_max as f64);
    m.push("versioned.compactions", "count", c.compactions as f64);
    m.push(
        "versioned.compaction_ms",
        "ms",
        probed.compaction_ms.unwrap_or_else(|| ms(c.compaction_time)),
    );
    // loadgen and trace health
    m.push("loadgen.ops", "count", traced.tally.attempted as f64);
    m.push("loadgen.failed", "count", traced.tally.failed as f64);
    m.push("trace.replayed", "count", replayed.len() as f64);
    m.push("trace.consistency_violations", "count", violations.len() as f64);
    let (with, without) = (end_to_end(traced), end_to_end(untraced));
    for (name, _, traced_value) in with.iter() {
        let plain = without.get(name).unwrap_or(0.0);
        // Overhead is positive when tracing made the metric worse.
        let worse =
            if name == "throughput_qps" { plain - traced_value } else { traced_value - plain };
        m.push(format!("trace.overhead_pct.{name}"), "%", 100.0 * ratio(worse, plain));
    }
    m
}

/// Writes the spans of the replayed requests as JSON lines under
/// `perfbench/out/`: the client round trip (root), the server's engine
/// phases (children of the root), and the replay's parse / json / handle /
/// write spans with the replay's engine phases under handle.
fn write_spans(
    args: &Args,
    setup: &Setup,
    prefix: &[Rec],
    replayed: &[Replayed],
) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{:?}-{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    let span = |text: &mut String,
                trace: &str,
                name: &str,
                parent: &str,
                start: Option<Duration>,
                dur: Duration| {
        let start = start.map_or(Json::Null, |s| Json::num(us(s)));
        let line = Json::Obj(vec![
            ("trace".into(), Json::str(trace)),
            ("span".into(), Json::str(name)),
            ("parent".into(), if parent.is_empty() { Json::Null } else { Json::str(parent) }),
            ("start_us".into(), start),
            ("dur_us".into(), Json::num(us(dur))),
        ]);
        let _ = writeln!(text, "{}", line.render());
    };
    let phases = |text: &mut String, trace_id: &str, parent: &str, traces: &[QueryTrace]| {
        for trace in traces {
            for phase in EnginePhase::ALL {
                span(
                    text,
                    trace_id,
                    &format!("engine.{}", phase.name()),
                    parent,
                    None,
                    trace.phase(phase),
                );
            }
        }
    };
    for rec in setup.recs.iter().chain(prefix) {
        span(&mut text, &rec.rid, "client.round_trip", "", Some(rec.start), rec.rtt);
        phases(&mut text, &rec.rid, "client.round_trip", &rec.traces);
    }
    for (i, r) in replayed.iter().enumerate() {
        let id = format!("replay-{i}");
        span(&mut text, &id, "http.parse", "", Some(r.start), r.parse);
        span(&mut text, &id, "json.parse", "", Some(r.start + r.parse), r.json);
        span(&mut text, &id, "service.handle", "", Some(r.start + r.parse + r.json), r.handle);
        phases(&mut text, &id, "service.handle", &r.traces);
        span(
            &mut text,
            &id,
            "http.write",
            "",
            Some(r.start + r.parse + r.json + r.handle),
            r.write,
        );
    }
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    Ok(path)
}
