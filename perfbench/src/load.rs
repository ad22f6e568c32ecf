//! The client side of the load loops: one timed exchange, failure
//! accounting, and the request log the traced run keeps for its replay.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrs_core::engine::QueryTrace;
use mrs_server::{Client, Json, Service};

/// One request/response pair as the client saw it.
pub struct Exchange {
    /// HTTP status.
    pub status: u16,
    /// The `X-Request-Id` the server stamped (empty if absent).
    pub rid: String,
    /// Response body.
    pub body: String,
    /// Client-observed round trip.
    pub rtt: Duration,
}

/// `POST path` with `body`, timed from the write to the last body byte.
pub fn post(client: &mut Client, path: &str, body: &str) -> io::Result<Exchange> {
    let start = Instant::now();
    let (status, headers, body) = client.request_with_headers("POST", path, body)?;
    let rtt = start.elapsed();
    Ok(Exchange { status, rid: request_id(&headers), body, rtt })
}

/// The `x-request-id` header value of a response.
pub fn request_id(headers: &[(String, String)]) -> String {
    headers
        .iter()
        .find(|(name, _)| name == "x-request-id")
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// What a request was: the latency split and the replay key on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `POST /query` against the named solver.
    Query(&'static str),
    /// `POST /batch`.
    Batch,
    /// `POST /datasets/{name}/insert|delete`.
    Mutate,
}

/// Attempted and failed requests of a phase.  A request fails on an I/O
/// error, a non-2xx status, an uncertified answer, a stale-version answer
/// or a wrong exact value; wrong exact values also fail the run.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Exact answers whose value disagreed with the in-process reference.
    pub wrong_exact: u64,
    /// The first few failure reasons, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one failed request.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why.into());
        }
    }

    /// Counts a wrong exact value: a failed request and a failed run.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.wrong_exact += 1;
        self.fail(why);
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_exact += other.wrong_exact;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// One logged request of the traced run: the root span (the client round
/// trip), its request bytes for the in-process replay, and the engine-phase
/// child spans the server recorded under its request id.
pub struct Rec {
    /// Send time, relative to the start of the run.
    pub start: Duration,
    /// Request target.
    pub path: &'static str,
    /// Request body.
    pub body: Arc<str>,
    /// What the request was.
    pub kind: Kind,
    /// Client round trip (for a pipelined burst, the burst's round trip).
    pub rtt: Duration,
    /// The server's request id.
    pub rid: String,
    /// The server's traces for this request id (executed queries only).
    pub traces: Vec<QueryTrace>,
}

/// A per-connection request log; a no-op unless the run is traced.
pub struct Recorder {
    service: Option<Arc<Service>>,
    t0: Instant,
    /// The logged requests, in send order.
    pub recs: Vec<Rec>,
}

impl Recorder {
    /// A recorder that logs every request and reads its traces from
    /// `service` right after the response arrives (the trace ring is
    /// bounded, so reading later could miss them).
    pub fn new(service: Option<Arc<Service>>, t0: Instant) -> Self {
        Self { service, t0, recs: Vec::new() }
    }

    /// Logs one exchange that was sent at `sent`.
    pub fn note(
        &mut self,
        sent: Instant,
        path: &'static str,
        body: &Arc<str>,
        kind: Kind,
        rtt: Duration,
        rid: &str,
    ) {
        let Some(service) = &self.service else { return };
        let traces = service.traces().for_request(rid);
        self.recs.push(Rec {
            start: sent.duration_since(self.t0),
            path,
            body: Arc::clone(body),
            kind,
            rtt,
            rid: rid.to_string(),
            traces,
        });
    }
}

/// The parsed `answer` object of a `/query` response body.
pub fn answer(body: &str) -> Option<Json> {
    Json::parse(body).ok()?.get("answer").cloned()
}

/// The answer's value: `value` for weighted answers, `distinct` for
/// colored ones.
pub fn answer_value(answer: &Json) -> Option<f64> {
    answer.get("value").or_else(|| answer.get("distinct")).and_then(Json::as_f64)
}

/// Checks that a `/query` response succeeded with a certified answer and
/// returns the answer, counting a failure otherwise.
pub fn certified_answer(tally: &mut Tally, ex: &Exchange, what: &str) -> Option<Json> {
    if !(200..300).contains(&ex.status) {
        tally.fail(format!("{what}: status {}: {}", ex.status, ex.body));
        return None;
    }
    let Some(answer) = answer(&ex.body) else {
        tally.fail(format!("{what}: no answer in {}", ex.body));
        return None;
    };
    if answer.get("certified").and_then(Json::as_bool) != Some(true) {
        tally.fail(format!("{what}: uncertified answer {}", ex.body));
        return None;
    }
    Some(answer)
}

/// `true` when `served` equals the reference value up to float summation
/// order.
pub fn same_value(served: f64, reference: f64) -> bool {
    (served - reference).abs() <= 1e-9 * reference.abs().max(1.0)
}
