//! What the three workloads share: booting the server, uploading the
//! generated datasets, server-side counters, query specs, and the
//! in-process reference answers.

use std::time::Duration;

use mrs_core::engine::{
    BatchAnswer, BatchExecutor, BatchQuery, BatchRequest, EngineConfig, RangeShape, Registry,
};
use mrs_server::{
    full_registry, serve, CacheCounters, Catalog, Client, Json, ServerConfig, ServerHandle, Service,
};

use crate::load::post;

/// The 1-D dataset's catalog name (the name `serve::query_pool` targets).
pub const LINE: &str = "loadgen1d";
/// The planar dataset's catalog name.
pub const PLANAR: &str = "loadgen";
/// The solver seed the server is booted with, fixed across workload seeds.
pub const SOLVER_SEED: u64 = 0x5EED_2025;
/// The server's default approximation parameter.
pub const EPS: f64 = 0.25;

/// Worker threads and connection budget: the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The server configuration every workload boots: defaults (epoll
/// runtime, certification on, 4096-entry cache), `threads = nproc`, an
/// ephemeral loopback port and the fixed solver seed.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: threads(),
        seed: Some(SOLVER_SEED),
        ..ServerConfig::default()
    }
}

/// Boots the server in-process.
pub fn boot() -> Result<ServerHandle, String> {
    serve(server_config()).map_err(|e| format!("boot: {e}"))
}

/// Uploads the line and planar datasets.
pub fn upload(client: &mut Client, line_csv: &str, planar_csv: &str) -> Result<(), String> {
    for (path, csv) in [("/datasets/loadgen1d?dim=1", line_csv), ("/datasets/loadgen", planar_csv)]
    {
        let ex = post(client, path, csv).map_err(|e| format!("upload {path}: {e}"))?;
        if ex.status != 200 {
            return Err(format!("upload {path}: status {}: {}", ex.status, ex.body));
        }
    }
    Ok(())
}

/// A snapshot of the live server's counters; phases report deltas.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    /// Answer-cache counters.
    pub cache: CacheCounters,
    /// Points distance-tested through spatial-index queries.
    pub candidates: u64,
    /// Spatial-index cells visited.
    pub cells: u64,
    /// Reactor `epoll_wait` returns with events.
    pub wakeups: u64,
    /// Bytes written as multi-response coalesced writes.
    pub coalesced: u64,
    /// Requests handled, all endpoints.
    pub requests: u64,
    /// Index builds, summed over datasets.
    pub index_builds: usize,
    /// Compactions, summed over datasets.
    pub compactions: usize,
    /// Time spent compacting, summed over datasets.
    pub compaction_time: Duration,
}

impl Counters {
    /// Reads the counters of `service`.
    pub fn of(service: &Service) -> Self {
        let stats = service.stats();
        let reactor = stats.reactor();
        let datasets = service.catalog().datasets();
        Self {
            cache: service.cache().counters(),
            candidates: stats.candidates_examined(),
            cells: stats.grid_cells_visited(),
            wakeups: reactor.wakeups,
            coalesced: reactor.coalesced_write_bytes,
            requests: stats.total_requests(),
            index_builds: datasets.iter().map(|d| d.index_builds()).sum(),
            compactions: datasets.iter().map(|d| d.compactions()).sum(),
            compaction_time: datasets.iter().map(|d| d.compaction_time()).sum(),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache: CacheCounters {
                hits: self.cache.hits - earlier.cache.hits,
                misses: self.cache.misses - earlier.cache.misses,
                evictions: self.cache.evictions - earlier.cache.evictions,
                invalidations: self.cache.invalidations - earlier.cache.invalidations,
                entries: self.cache.entries,
                capacity: self.cache.capacity,
            },
            candidates: self.candidates - earlier.candidates,
            cells: self.cells - earlier.cells,
            wakeups: self.wakeups - earlier.wakeups,
            coalesced: self.coalesced - earlier.coalesced,
            requests: self.requests - earlier.requests,
            index_builds: self.index_builds - earlier.index_builds,
            compactions: self.compactions - earlier.compactions,
            compaction_time: self.compaction_time.saturating_sub(earlier.compaction_time),
        }
    }
}

/// A query shape as the wire format names it.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `{"ball": r}`.
    Ball(f64),
    /// `{"interval": L}` (a 1-D ball of radius `L/2`).
    Interval(f64),
    /// `{"box": [w, h]}`.
    Box(f64, f64),
}

/// One query: solver, shape and target dataset.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Registered solver name.
    pub solver: &'static str,
    /// Range shape.
    pub shape: Shape,
    /// `true` for the line dataset, `false` for the planar one.
    pub line: bool,
}

/// The solver classes the workloads send; each has a `solve.<class>_ms`
/// per-layer metric.
pub const SOLVERS: [&str; 7] = [
    "exact-disk-2d",
    "exact-rect-2d",
    "exact-colored-rect-2d",
    "batched-interval-1d",
    "exact-interval-1d",
    "approx-static-ball",
    "dynamic-ball",
];

impl Spec {
    /// The `/query` body (`cache` off when `cache` is `false`).
    pub fn body(&self, cache: bool) -> String {
        let dataset = if self.line { LINE } else { PLANAR };
        let cache = if cache { "" } else { r#","cache":false"# };
        format!(
            r#"{{"dataset":"{dataset}","solver":"{}","shape":{}{cache}}}"#,
            self.solver,
            self.shape_json()
        )
    }

    /// The `shape` object.
    pub fn shape_json(&self) -> String {
        match self.shape {
            Shape::Ball(r) => format!(r#"{{"ball":{r}}}"#),
            Shape::Interval(l) => format!(r#"{{"interval":{l}}}"#),
            Shape::Box(w, h) => format!(r#"{{"box":[{w},{h}]}}"#),
        }
    }

    /// Parses a query body this benchmark (or `serve::query_pool`) wrote.
    pub fn parse(body: &str) -> Option<Spec> {
        let json = Json::parse(body).ok()?;
        let name = json.get("solver")?.as_str()?;
        let solver = SOLVERS.iter().copied().find(|s| *s == name)?;
        let shape = json.get("shape")?;
        let shape = if let Some(r) = shape.get("ball").and_then(Json::as_f64) {
            Shape::Ball(r)
        } else if let Some(l) = shape.get("interval").and_then(Json::as_f64) {
            Shape::Interval(l)
        } else {
            let extents = shape.get("box")?.as_arr()?;
            Shape::Box(extents.first()?.as_f64()?, extents.get(1)?.as_f64()?)
        };
        Some(Spec { solver, shape, line: json.get("dataset")?.as_str()? == LINE })
    }

    /// `true` for the colored (distinct-count) problem.
    pub fn colored(&self) -> bool {
        self.solver.contains("colored")
    }

    /// `true` when the solver's answer is exact (not `(1/2 − ε)`).
    pub fn exact(&self) -> bool {
        self.solver.starts_with("exact") || self.solver == "batched-interval-1d"
    }

    fn query<const D: usize>(&self, shape: RangeShape<D>) -> BatchQuery<D> {
        if self.colored() {
            BatchQuery::colored(self.solver, shape)
        } else {
            BatchQuery::weighted(self.solver, shape)
        }
    }

    fn line_query(&self) -> BatchQuery<1> {
        let radius = match self.shape {
            Shape::Ball(r) => r,
            Shape::Interval(l) => l / 2.0,
            Shape::Box(..) => unreachable!("box queries target the planar dataset"),
        };
        self.query(RangeShape::<1>::ball(radius))
    }

    fn planar_query(&self) -> BatchQuery<2> {
        match self.shape {
            Shape::Ball(r) => self.query(RangeShape::<2>::ball(r)),
            Shape::Box(w, h) => self.query(RangeShape::rect(w, h)),
            Shape::Interval(_) => unreachable!("interval queries target the line dataset"),
        }
    }

    /// The same query answered exactly: approximate ball solvers map to
    /// the exact solver of the dataset's dimension.
    pub fn exact_twin(&self) -> Spec {
        let solver = match (self.exact(), self.line) {
            (true, _) => self.solver,
            (false, true) => "exact-interval-1d",
            (false, false) => "exact-disk-2d",
        };
        Spec { solver, ..*self }
    }
}

/// In-process reference answers: `BatchExecutor::execute` over the same
/// generated points, loaded through a private catalog.
pub struct Reference {
    registry: Registry,
    line: BatchRequest<1>,
    planar: BatchRequest<2>,
}

impl Reference {
    /// Loads the two datasets from their CSV text.
    pub fn new(line_csv: &str, planar_csv: &str) -> Result<Self, String> {
        let catalog = Catalog::new();
        let line = catalog.load_line_csv(LINE, line_csv).map_err(|e| e.to_string())?;
        let planar = catalog.load_planar_csv(PLANAR, planar_csv).map_err(|e| e.to_string())?;
        let registry = full_registry(EngineConfig::practical(EPS).with_seed(SOLVER_SEED));
        Ok(Self {
            registry,
            line: line.as_line().ok_or("line dataset loaded as planar")?.request(),
            planar: planar.as_planar().ok_or("planar dataset loaded as line")?.request(),
        })
    }

    /// The values of `specs` (all on one dataset), in order.
    pub fn values(&self, specs: &[Spec]) -> Result<Vec<f64>, String> {
        let executor = BatchExecutor::new(&self.registry);
        if specs.iter().all(|s| s.line) {
            let mut request = self.line.clone();
            specs.iter().for_each(|s| request.push(s.line_query()));
            executor.execute(&request).answers.iter().map(value_of).collect()
        } else if specs.iter().all(|s| !s.line) {
            let mut request = self.planar.clone();
            specs.iter().for_each(|s| request.push(s.planar_query()));
            executor.execute(&request).answers.iter().map(value_of).collect()
        } else {
            Err("reference specs must target one dataset".into())
        }
    }
}

/// An engine answer's value: covered weight, or distinct colors.
fn value_of<const D: usize>(answer: &BatchAnswer<D>) -> Result<f64, String> {
    match answer {
        BatchAnswer::Weighted(report) => Ok(report.placement.value),
        BatchAnswer::Colored(report) => Ok(report.placement.distinct as f64),
        BatchAnswer::Failed(error) => Err(error.to_string()),
    }
}
