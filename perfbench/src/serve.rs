//! `serve-edit`: a closed loop of two clients on two connections
//! against an in-process `ped_server::spawn`.
//!
//! Each client owns a session on a workshop program and cycles
//! view (`stmts`, `select_loop`, `deps`, `vars`) → `edit` → re-view
//! (`deps`, `lint`, `stats`), then replays one Table 2 persona script
//! (`open` … `mark`/`classify` … `close`) in a session of its own. The
//! edit toggles one assignment between two texts, so whole-analysis
//! keys miss while pair and scalar memos partly hit, and memory stays
//! bounded. Every response is checked against a replay of the same
//! lines on a fresh single-threaded registry, as
//! `ped_server::oracle_replay` does.

use crate::host::{self, Probe, Stopwatch};
use crate::report::{self, median, percentile, Outcome};
use crate::trace::Tracer;
use ped_server::json::{self, Value};
use ped_server::{ManagerConfig, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Set-ups per run: server spawn, connections, session opens.
const SETUPS: usize = 11;
/// The (program, unit) each client's session edits.
const SESSIONS: [(&str, &str); 2] = [("slab2d", "ADVECT"), ("pueblo3d", "HYDRO")];
/// Every method the workload sends.
const METHODS: [&str; 12] = [
    "open",
    "select_unit",
    "select_loop",
    "stmts",
    "deps",
    "vars",
    "edit",
    "lint",
    "stats",
    "mark",
    "classify",
    "close",
];

/// The method of a request line, from [`METHODS`].
fn method_of(line: &str) -> &'static str {
    METHODS
        .iter()
        .find(|m| line.contains(&format!("\"method\":\"{m}\"")))
        .copied()
        .unwrap_or("other")
}

/// One wire request as the client saw it. Only fingerprints are kept,
/// so the benchmark's own memory does not grow with the request count.
struct Exchange {
    method: &'static str,
    secs: f64,
    /// Fingerprint of the response line.
    fp: u64,
    ok: bool,
}

/// The request lines of one client, a pure function of the seed, the
/// cycle number and the edited statement's id in that cycle — so the
/// lines can be generated again for the oracle instead of stored.
struct Requests {
    client: usize,
    seed: u64,
    session: String,
    next_id: usize,
    /// The edited assignment's two texts, from the first `stmts` view.
    texts: [String; 2],
}

impl Requests {
    fn new(client: usize, seed: u64) -> Requests {
        Requests {
            client,
            seed,
            session: format!("edit{client}-seed{seed}"),
            next_id: 0,
            texts: Default::default(),
        }
    }

    fn own(&mut self, method: &str, extra: &str) -> String {
        self.next_id += 1;
        let session = Value::str(self.session.as_str()).encode();
        format!(
            "{{\"id\":{},\"method\":\"{method}\",\"params\":{{\"session\":{session}{extra}}}}}",
            self.next_id
        )
    }

    /// `open` and `select_unit` of the editing session.
    fn set_up(&mut self) -> [String; 2] {
        let (program, unit) = SESSIONS[self.client];
        [
            self.own("open", &format!(",\"program\":\"{program}\"")),
            self.own("select_unit", &format!(",\"unit\":\"{unit}\"")),
        ]
    }

    /// Pick the edited assignment from the first `stmts` view: the
    /// first array assignment, toggled with a seed-drawn addend.
    fn choose_texts(&mut self, rows: &[(i64, String)]) {
        let original = rows
            .iter()
            .map(|(_, t)| t.clone())
            .find(|t| t.contains(") = "))
            .unwrap_or_default();
        let variant = format!("{original} + {}.0", 1 + self.seed % 9);
        self.texts = [original, variant];
    }

    /// The text the statement has at the start of `cycle`.
    fn current(&self, cycle: usize) -> &str {
        &self.texts[cycle % 2]
    }

    /// Everything after the `stmts` view: view, edit, re-view, and one
    /// persona script in a session of its own.
    fn rest(&mut self, cycle: usize, target: i64) -> Vec<String> {
        let text = Value::str(self.texts[(cycle + 1) % 2].as_str()).encode();
        let mut lines = vec![
            self.own("select_loop", ",\"loop\":0"),
            self.own("deps", ""),
            self.own("vars", ""),
            self.own("edit", &format!(",\"stmt\":{target},\"text\":{text}")),
            self.own("deps", ""),
            self.own("lint", ""),
            self.own("stats", ""),
        ];
        let names = ped_workloads::scripts::script_names();
        let persona = names[(cycle + self.seed as usize + self.client) % names.len()];
        let sid = format!("c{}k{cycle}s{}-{persona}", self.client, self.seed);
        lines.extend(ped_workloads::scripts::persona_script(persona, &sid).expect("known persona"));
        lines
    }
}

/// A client's connection and what it saw.
struct Client {
    requests: Requests,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    log: Vec<Exchange>,
    /// The edited statement's id in each cycle.
    targets: Vec<i64>,
    response: String,
}

impl Client {
    fn connect(addr: SocketAddr, index: usize, seed: u64) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            requests: Requests::new(index, seed),
            writer: stream.try_clone().expect("clone the client socket"),
            reader: BufReader::new(stream),
            log: Vec::new(),
            targets: Vec::new(),
            response: String::new(),
        }
    }

    /// Send one line and wait for its response.
    fn ask(&mut self, line: &str) {
        let t = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send a request");
        self.response.clear();
        self.reader
            .read_line(&mut self.response)
            .expect("read a response");
        let secs = t.elapsed().as_secs_f64();
        let resp = self.response.trim_end();
        self.log.push(Exchange {
            method: method_of(line),
            secs,
            fp: crate::fingerprint(resp.as_bytes()),
            ok: resp.contains("\"ok\":true"),
        });
    }

    /// Run cycles until `seconds` have passed since `start`.
    fn drive(mut self, start: Instant, seconds: f64) -> Client {
        let mut cycle = 0usize;
        while cycle == 0 || start.elapsed().as_secs_f64() < seconds {
            let line = self.requests.own("stmts", "");
            self.ask(&line);
            let rows = stmt_rows(&self.response);
            if cycle == 0 {
                self.requests.choose_texts(&rows);
            }
            let current = self.requests.current(cycle);
            let target = rows.iter().find(|(_, t)| t == current).map_or(-1, |r| r.0);
            self.targets.push(target);
            for line in self.requests.rest(cycle, target) {
                self.ask(&line);
            }
            cycle += 1;
        }
        self
    }

    /// Every line this client sent, generated again.
    fn lines(&self) -> Vec<String> {
        let mut r = Requests::new(self.requests.client, self.requests.seed);
        r.texts = self.requests.texts.clone();
        let mut lines: Vec<String> = r.set_up().into();
        for (cycle, &target) in self.targets.iter().enumerate() {
            lines.push(r.own("stmts", ""));
            lines.extend(r.rest(cycle, target));
        }
        lines
    }
}

/// Spawn the server and open both editing sessions.
fn set_up(seed: u64) -> (ServerHandle, Vec<Client>) {
    let server = ped_server::spawn(ServerConfig {
        workers: crate::nproc(),
        manager: ManagerConfig::default(),
        ..ServerConfig::default()
    })
    .expect("spawn the in-process server");
    let clients = (0..SESSIONS.len())
        .map(|i| {
            let mut c = Client::connect(server.addr, i, seed);
            for line in c.requests.set_up() {
                c.ask(&line);
            }
            c
        })
        .collect();
    (server, clients)
}

/// `(id, text)` rows of a `stmts` response.
fn stmt_rows(stmts_response: &str) -> Vec<(i64, String)> {
    let v = json::parse(stmts_response).unwrap_or(Value::Null);
    let rows = v
        .get("result")
        .and_then(|r| r.get("stmts"))
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    rows.iter()
        .filter_map(|r| Some((r.get("id")?.as_i64()?, r.get("text")?.as_str()?.to_string())))
        .collect()
}

/// What replaying one client's lines showed.
#[derive(Default)]
struct Replay {
    checked: u64,
    mismatches: Vec<String>,
    /// Per timed request: dispatch seconds, and wire minus dispatch.
    dispatch: Vec<f64>,
    transport: Vec<f64>,
    /// The editing session's last `stats` response.
    last_stats: String,
}

/// Replay a client's lines exactly as `ped_server::oracle_replay` does —
/// a fresh single-threaded registry, `dispatch_line` per line — but
/// streamed, so responses are fingerprinted and compared with the wire
/// instead of being stored. With a tracer, dispatch and the JSON codec
/// on every response are also recorded as spans.
fn replay(c: &Client, tr: Option<&Tracer>) -> Replay {
    let mgr = ped_server::SessionManager::new(ManagerConfig::default());
    let flag = AtomicBool::new(false);
    let session = format!("\"{}\"", c.requests.session);
    let mut r = Replay::default();
    let lines = c.lines();
    for (i, (line, x)) in lines.iter().zip(&c.log).enumerate() {
        let group = ((c.requests.client as u64) << 32) | i as u64;
        let t = Instant::now();
        let resp = ped_server::dispatch_line(&mgr, &flag, line);
        let secs = t.elapsed().as_secs_f64();
        r.checked += 1;
        let same = x.fp == crate::fingerprint(resp.as_bytes());
        if !(same && x.ok) {
            r.mismatches.push(format!(
                "client {} request {i} ({}): {}",
                c.requests.client,
                x.method,
                if same {
                    "error response"
                } else {
                    "differs from oracle"
                }
            ));
        }
        let Some(tr) = tr else { continue };
        tr.record("server.dispatch", group, None, t);
        if i >= 2 {
            r.dispatch.push(secs);
            r.transport.push(x.secs - secs);
        }
        if let Ok(v) = tr.span("json.parse", group, None, |_| json::parse(&resp)) {
            tr.span("json.encode", group, None, |_| v.encode());
        }
        if x.method == "stats" && line.contains(&session) {
            r.last_stats = resp;
        }
    }
    if lines.len() != c.log.len() {
        r.checked += 1;
        r.mismatches
            .push("regenerated lines differ in number".into());
    }
    r
}

/// Replay every client, one thread each, and count the checks.
fn replay_all(clients: &[Client], tr: Option<&Tracer>, out: &mut Outcome) -> Vec<Replay> {
    let replays: Vec<Replay> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| s.spawn(move || replay(c, tr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    for r in &replays {
        for _ in 0..r.checked - r.mismatches.len() as u64 {
            out.check(true, String::new);
        }
        for m in &r.mismatches {
            out.check(false, || m.clone());
        }
    }
    replays
}

pub fn edit(cfg: &crate::Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t = Stopwatch::start();
        let (server, clients) = set_up(cfg.seed);
        setups.push(t.split().cpu);
        if i + 1 == SETUPS {
            live = Some((server, clients));
        } else {
            drop(clients);
            drop(server);
        }
    }
    let (mut server, clients) = live.expect("at least one set-up");
    let probe = Probe::start();
    let phase = Stopwatch::start();
    let start = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| s.spawn(move || c.drive(start, cfg.seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let phase = phase.split();
    let rss = host::peak_rss_mb();
    out.notes.push(probe.note());
    server.stop();
    if cfg.trace {
        traced(cfg, &clients, &mut out);
        return Ok(out);
    }
    replay_all(&clients, None, &mut out);
    // Set-up requests are not part of the timed phase.
    let timed: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.log[2..].iter().map(|x| x.secs))
        .collect();
    // Requests overlap, so per-request time is wall time; throughput
    // is per second of the process's CPU time, which excludes steal.
    let n = timed.len() as f64;
    report::end_to_end(&mut out, &setups, &timed, n, phase.cpu, rss);
    out.notes.push(format!(
        "wall clock: {:.1} requests/s over {:.1}s",
        n / phase.wall,
        phase.wall
    ));
    Ok(out)
}

/// Per-method wire latencies, the replay's dispatch times, JSON codec
/// times and the sessions' hit ratios.
fn traced(cfg: &crate::Config, clients: &[Client], out: &mut Outcome) {
    let tr = Tracer::default();
    let replays = replay_all(clients, Some(&tr), out);
    let dispatch: Vec<f64> = replays.iter().flat_map(|r| r.dispatch.clone()).collect();
    let transport: Vec<f64> = replays.iter().flat_map(|r| r.transport.clone()).collect();
    let mut memos = [(0.0, 0.0); 4];
    for r in &replays {
        for (sum, (hits, lookups)) in memos.iter_mut().zip(memo_counts(&r.last_stats)) {
            sum.0 += hits;
            sum.1 += lookups;
        }
    }
    let wire = |method: &str| -> Vec<f64> {
        clients
            .iter()
            .flat_map(|c| c.log[2..].iter())
            .filter(|x| x.method == method)
            .map(|x| x.secs * 1e3)
            .collect()
    };
    for method in ["open", "stmts", "deps", "vars", "edit", "lint", "stats"] {
        out.metric(&format!("serve.{method}_ms"), median(&wire(method)), "ms");
    }
    out.metric("serve.edit_p99_ms", percentile(&wire("edit"), 0.99), "ms");
    out.metric("server.dispatch_ms", median(&dispatch) * 1e3, "ms");
    out.metric("server.transport_ms", median(&transport) * 1e3, "ms");
    out.metric(
        "json.parse_us",
        median(&tr.durations("json.parse")) * 1e6,
        "us",
    );
    out.metric(
        "json.encode_us",
        median(&tr.durations("json.encode")) * 1e6,
        "us",
    );
    for (memo, (hits, lookups)) in MEMOS.iter().zip(memos) {
        out.metric(
            &format!("session.{memo}_hit_ratio"),
            hits / lookups,
            "ratio",
        );
        out.metric(&format!("session.{memo}_lookups"), lookups, "count");
    }
    crate::batch::write_trace(cfg, "serve-edit", &tr, out);
}

const MEMOS: [&str; 4] = ["analysis", "pair", "scalar", "lint"];

/// (hits, lookups) of each memo in [`MEMOS`], from a `stats` response.
fn memo_counts(stats: &str) -> [(f64, f64); 4] {
    let v = json::parse(stats).unwrap_or(Value::Null);
    let get = |k: String| {
        v.get("result")
            .and_then(|r| r.get(&k))
            .and_then(Value::as_i64)
            .unwrap_or(0) as f64
    };
    MEMOS.map(|memo| {
        let hits = get(format!("{memo}_hits"));
        (hits, hits + get(format!("{memo}_misses")))
    })
}
