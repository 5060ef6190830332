//! Server load suites against an in-process `ped-serve`.
//!
//! * **BENCH_2** replays the Table 2 persona wire scripts
//!   (`ped_workloads::scripts`) as 1 vs 8 concurrent TCP
//!   clients: throughput and p50/p99.
//! * **BENCH_6** is the event-loop/snapshot suite:
//!   - **scaling** — 1-client and N-client runs alternated in a fixed
//!     order, medians compared, gated to improve on the thread-pool
//!     server's committed BENCH_2 scaling;
//!   - **read-heavy persona mix** — 4 readers hammer `deps`/`vars`/
//!     `stmts`/`lint`/`stats` on ONE shared session while a writer storm
//!     edits that same session; per-method p50/p99, gated: storm read
//!     p99 <= 3x the no-writer baseline (snapshot reads must not queue
//!     behind the writer lock);
//!   - **many sessions** — >= 1k concurrent live sessions multiplexed
//!     over 32 connections, comfortably inside the default fd budget.
//! * [`smoke`] — 8 concurrent clients, every response checked
//!   byte-for-byte against the single-threaded in-process oracle.

use crate::harness::{median, num, obj, percentile, write_report};
use ped_analysis::fanout::probe_cores;
use ped_server::json::{self, Value};
use ped_server::{ManagerConfig, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Concurrent clients of the loaded scenarios and the smoke gate.
const CLIENTS: usize = 8;
/// Persona-script replays per client in BENCH_2's measured scenarios.
const ITERS: usize = 2;

/// One client's work: replay every persona script `iters` times over a
/// single connection, with per-request latencies in microseconds.
fn run_client(
    addr: SocketAddr,
    client: usize,
    iters: usize,
    check_oracle: bool,
) -> (Vec<f64>, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::new();
    let mut requests = 0usize;
    for iter in 0..iters {
        for ws in ped_workloads::scripts::all_scripts(&format!("c{client}i{iter}")) {
            let mut responses = Vec::with_capacity(ws.lines.len());
            for line in &ws.lines {
                let t = Instant::now();
                writer.write_all(line.as_bytes()).expect("write");
                writer.write_all(b"\n").expect("write");
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("read");
                latencies.push(t.elapsed().as_secs_f64() * 1e6);
                requests += 1;
                responses.push(resp.trim_end().to_string());
            }
            if check_oracle {
                let expect = ped_server::oracle_replay(&ws.lines);
                assert_eq!(
                    responses, expect,
                    "client {client} iter {iter} {}: server bytes diverged from oracle",
                    ws.persona
                );
            }
        }
    }
    (latencies, requests)
}

struct Scenario {
    clients: usize,
    requests: usize,
    wall_secs: f64,
    throughput_rps: f64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn run_scenario(clients: usize, iters: usize, check_oracle: bool) -> Scenario {
    let cfg = ServerConfig {
        workers: clients.max(4),
        manager: ManagerConfig {
            max_sessions: 4096,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = ped_server::spawn(cfg).expect("spawn server");
    let addr = server.addr;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || run_client(addr, c, iters, check_oracle)))
        .collect();
    let mut latencies = Vec::new();
    let mut requests = 0;
    for h in handles {
        let (l, r) = h.join().expect("client thread");
        latencies.extend(l);
        requests += r;
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    server.stop();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let mean_us = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let s = Scenario {
        clients,
        requests,
        wall_secs,
        throughput_rps: requests as f64 / wall_secs.max(1e-9),
        mean_us,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    };
    println!(
        "{:>2} client(s): {:>6} requests in {:>6.2}s  {:>8.1} req/s   p50 {:>9.1} µs   p99 {:>9.1} µs",
        s.clients, s.requests, s.wall_secs, s.throughput_rps, s.p50_us, s.p99_us
    );
    s
}

impl Scenario {
    fn to_value(&self) -> Value {
        obj([
            ("clients", Value::int(self.clients as i64)),
            ("requests", Value::int(self.requests as i64)),
            ("wall_secs", num(self.wall_secs, 3)),
            ("throughput_rps", num(self.throughput_rps, 1)),
            ("mean_us", num(self.mean_us, 1)),
            ("p50_us", num(self.p50_us, 1)),
            ("p99_us", num(self.p99_us, 1)),
        ])
    }
}

// ---------------------------------------------------------------------
// BENCH_6: event-loop + snapshot-read suite
// ---------------------------------------------------------------------

/// The thread-pool server's committed BENCH_2 throughput scaling on the
/// reference 1-core container; the event loop is gated to beat it.
const BENCH2_REFERENCE_SCALING: f64 = 1.42;

/// A synthetic unit with `arrays` loop-carried recurrences, sized so
/// `deps` responses are a few KB and every edit forces reanalysis.
fn recurrence_source(arrays: usize) -> String {
    let mut src = String::new();
    for k in 0..arrays {
        src.push_str(&format!("      REAL A{k}(200)\n"));
    }
    src.push_str("      DO 10 I = 2, N\n");
    for k in 0..arrays {
        src.push_str(&format!("      A{k}(I) = A{k}(I-1) + A{k}(I+1)\n"));
    }
    src.push_str("   10 CONTINUE\n      END\n");
    src
}

struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Wire {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn ask(&mut self, req: &str) -> String {
        self.writer.write_all(req.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        assert!(resp.ends_with('\n'), "truncated response for {req}");
        resp.trim_end().to_string()
    }
}

/// Find the id of the statement whose text starts with `needle` in a
/// `stmts` response (rows look like `{"id":7,"text":"A0(I) = ..."}`).
fn find_stmt_id(stmts_resp: &str, needle: &str) -> u32 {
    for part in stmts_resp.split("{\"id\":").skip(1) {
        if let Some((id, rest)) = part.split_once(",\"text\":\"") {
            if rest.starts_with(needle) {
                return id.trim().parse().expect("stmt id");
            }
        }
    }
    panic!("statement '{needle}' not found in {stmts_resp}");
}

/// An integer member of a successful response's `result`.
fn result_u64(resp: &str, field: &str) -> u64 {
    let v = json::parse(resp).expect("response is JSON");
    v.get("result")
        .and_then(|r| r.get(field))
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("no {field} in {resp}")) as u64
}

const READ_METHODS: [&str; 5] = ["deps", "vars", "stmts", "lint", "stats"];

struct MixResult {
    per_method: BTreeMap<&'static str, Vec<f64>>,
    read_p99_us: f64,
    writer_publishes: u64,
    snapshot_reads: u64,
    wall_secs: f64,
}

/// N reader clients cycle the read-only methods against ONE shared
/// session for `duration`; with `with_writer`, one more client
/// continuously edits that same session (stmts → edit → repeat, each
/// edit toggling the recurrence so reanalysis is real work).
fn run_read_heavy(readers: usize, with_writer: bool, duration: Duration) -> MixResult {
    let mut server = ped_server::spawn(ServerConfig {
        manager: ManagerConfig {
            max_sessions: 4096,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("spawn server");
    let addr = server.addr;

    let mut setup = Wire::connect(addr);
    let open = format!(
        "{{\"id\":1,\"method\":\"open\",\"params\":{{\"session\":\"storm\",\"source\":\"{}\"}}}}",
        recurrence_source(16).replace('\n', "\\n")
    );
    assert!(setup.ask(&open).contains("\"ok\":true"), "open failed");
    let sel = "{\"id\":2,\"method\":\"select_loop\",\"params\":{\"session\":\"storm\",\"loop\":0}}";
    assert!(setup.ask(sel).contains("\"ok\":true"), "select failed");

    let deadline = Instant::now() + duration;
    let t0 = Instant::now();
    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                let mut lat: BTreeMap<&'static str, Vec<f64>> =
                    READ_METHODS.iter().map(|m| (*m, Vec::new())).collect();
                let mut id = 1_000_000 * (r as u64 + 1);
                while Instant::now() < deadline {
                    for method in READ_METHODS {
                        id += 1;
                        let req = format!(
                            "{{\"id\":{id},\"method\":\"{method}\",\"params\":{{\"session\":\"storm\"}}}}"
                        );
                        let t = Instant::now();
                        let resp = wire.ask(&req);
                        lat.get_mut(method).unwrap().push(t.elapsed().as_secs_f64() * 1e6);
                        assert!(resp.contains("\"ok\":true"), "read failed: {resp}");
                    }
                }
                lat
            })
        })
        .collect();

    let writer_handle = with_writer.then(|| {
        std::thread::spawn(move || {
            let mut wire = Wire::connect(addr);
            let texts = ["A0(I) = A0(I-1)", "A0(I) = A0(I-1) + A0(I+1)"];
            let mut edits = 0u64;
            while Instant::now() < deadline {
                let stmts = wire.ask(
                    "{\"id\":1,\"method\":\"stmts\",\"params\":{\"session\":\"storm\"}}",
                );
                // Edits mint fresh statement ids, so re-find the target
                // each round.
                let stmt = find_stmt_id(&stmts, "A0(I)");
                let req = format!(
                    "{{\"id\":2,\"method\":\"edit\",\"params\":{{\"session\":\"storm\",\"stmt\":{stmt},\"text\":\"{}\"}}}}",
                    texts[(edits % 2) as usize]
                );
                let resp = wire.ask(&req);
                assert!(resp.contains("\"ok\":true"), "edit failed: {resp}");
                edits += 1;
            }
            edits
        })
    });

    let mut per_method: BTreeMap<&'static str, Vec<f64>> =
        READ_METHODS.iter().map(|m| (*m, Vec::new())).collect();
    for h in reader_handles {
        for (m, lat) in h.join().expect("reader thread") {
            per_method.get_mut(m).unwrap().extend(lat);
        }
    }
    let edits = writer_handle.map(|h| h.join().expect("writer thread"));
    let wall_secs = t0.elapsed().as_secs_f64();

    let stats = setup.ask("{\"id\":3,\"method\":\"stats\",\"params\":{\"session\":\"storm\"}}");
    let writer_publishes = result_u64(&stats, "writer_publishes");
    let snapshot_reads = result_u64(&stats, "snapshot_reads");
    server.stop();

    let mut all_reads: Vec<f64> = per_method.values().flatten().copied().collect();
    all_reads.sort_by(|a, b| a.total_cmp(b));
    let label = if with_writer {
        "writer storm"
    } else {
        "no writer"
    };
    println!(
        "  {label}: {} reads, read p99 {:>8.1} µs, {} publishes{}",
        all_reads.len(),
        percentile(&all_reads, 0.99),
        writer_publishes,
        edits.map(|e| format!(" ({e} edits)")).unwrap_or_default()
    );
    MixResult {
        read_p99_us: percentile(&all_reads, 0.99),
        per_method,
        writer_publishes,
        snapshot_reads,
        wall_secs,
    }
}

fn per_method_value(per_method: &BTreeMap<&'static str, Vec<f64>>) -> Value {
    obj(per_method.iter().map(|(m, lat)| {
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let row = obj([
            ("count", Value::int(sorted.len() as i64)),
            ("p50_us", num(percentile(&sorted, 0.50), 1)),
            ("p99_us", num(percentile(&sorted, 0.99), 1)),
        ]);
        (*m, row)
    }))
}

/// ≥1k live sessions multiplexed over a handful of connections — the
/// event loop's whole point: a session costs state, not a thread or fd
/// per client.
fn run_many_sessions(connections: usize, per_conn: usize) -> (usize, usize) {
    let mut server = ped_server::spawn(ServerConfig {
        manager: ManagerConfig {
            max_sessions: 4096,
            idle_ttl: Duration::from_secs(600),
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("spawn server");
    let addr = server.addr;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(connections + 1));
    let src = recurrence_source(2).replace('\n', "\\n");
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let barrier = std::sync::Arc::clone(&barrier);
            let src = src.clone();
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                for s in 0..per_conn {
                    let open = format!(
                        "{{\"id\":1,\"method\":\"open\",\"params\":{{\"session\":\"m{c}s{s}\",\"source\":\"{src}\"}}}}"
                    );
                    assert!(wire.ask(&open).contains("\"ok\":true"), "open failed");
                }
                // All sessions live at once across every connection.
                barrier.wait();
                barrier.wait();
                for s in 0..per_conn {
                    let deps = format!(
                        "{{\"id\":2,\"method\":\"deps\",\"params\":{{\"session\":\"m{c}s{s}\"}}}}"
                    );
                    assert!(wire.ask(&deps).contains("\"ok\":true"), "deps failed");
                    let close = format!(
                        "{{\"id\":3,\"method\":\"close\",\"params\":{{\"session\":\"m{c}s{s}\"}}}}"
                    );
                    assert!(wire.ask(&close).contains("\"ok\":true"), "close failed");
                }
            })
        })
        .collect();
    barrier.wait();
    let peak = server.manager.len();
    barrier.wait();
    for h in handles {
        h.join().expect("connection thread");
    }
    let end = server.manager.len();
    server.stop();
    println!(
        "  {} sessions over {connections} connections (peak live {peak}, after close {end})",
        connections * per_conn
    );
    (peak, end)
}

/// BENCH_2: persona-script throughput and latency, 1 vs 8 clients.
pub fn bench2(out: &str) {
    let cores = probe_cores();
    println!("ped-bench 2: {cores} core(s), {CLIENTS} clients x {ITERS} iters\n");

    // Warm-up (and correctness gate): one client, oracle-checked.
    println!("oracle check:");
    run_scenario(1, 1, true);
    std::thread::sleep(Duration::from_millis(50));

    println!("\nmeasured scenarios:");
    let base = run_scenario(1, ITERS, false);
    std::thread::sleep(Duration::from_millis(50));
    let loaded = run_scenario(CLIENTS, ITERS, false);

    let scaling = loaded.throughput_rps / base.throughput_rps.max(1e-9);
    println!(
        "\nthroughput {} -> {} clients: {:.2}x ({} core(s))",
        base.clients, loaded.clients, scaling, cores
    );
    let report = obj([
        ("generated_by", Value::str("ped-bench 2")),
        ("available_parallelism", Value::int(cores as i64)),
        (
            "summary",
            obj([
                ("clients", Value::int(CLIENTS as i64)),
                ("throughput_scaling", num(scaling, 2)),
            ]),
        ),
        (
            "scenarios",
            Value::Arr(vec![base.to_value(), loaded.to_value()]),
        ),
    ]);
    write_report(out, &report);
}

/// BENCH_6: the event-loop/snapshot suite.
pub fn bench6(out: &str) {
    const PAIRS: usize = 3;
    let clients = CLIENTS;
    let cores = probe_cores();
    println!("ped-bench 6: {cores} core(s), {clients} clients\n");

    println!("oracle check:");
    run_scenario(clients, 1, true);

    // Medians of base and loaded runs alternated in a fixed order, so
    // machine drift hits both sides equally.
    println!("\npaired scaling ({PAIRS} pairs):");
    let mut base_rps = Vec::new();
    let mut loaded_rps = Vec::new();
    for _ in 0..PAIRS {
        base_rps.push(run_scenario(1, 1, false).throughput_rps);
        loaded_rps.push(run_scenario(clients, 1, false).throughput_rps);
    }
    let base_median = median(&base_rps);
    let loaded_median = median(&loaded_rps);
    let scaling = loaded_median / base_median.max(1e-9);
    println!(
        "  medians: {base_median:.1} -> {loaded_median:.1} req/s, scaling {scaling:.2}x \
         (BENCH_2 thread-pool reference {BENCH2_REFERENCE_SCALING:.2}x, {cores} core(s))"
    );
    assert!(
        scaling > BENCH2_REFERENCE_SCALING,
        "event-loop scaling {scaling:.2}x does not improve on the thread-pool's \
         committed {BENCH2_REFERENCE_SCALING:.2}x"
    );

    println!("\nread-heavy mix (4 readers, shared session):");
    let mix_secs = Duration::from_millis(2500);
    let baseline = run_read_heavy(4, false, mix_secs);
    let storm = run_read_heavy(4, true, mix_secs);
    let ratio = storm.read_p99_us / baseline.read_p99_us.max(1e-9);
    println!(
        "  storm read p99 / baseline read p99 = {ratio:.2} (gate: <= 3.0); \
         storm saw {} publishes, {} snapshot reads",
        storm.writer_publishes, storm.snapshot_reads
    );
    assert!(
        storm.writer_publishes > 0,
        "writer storm never published an edit"
    );
    assert!(
        ratio <= 3.0,
        "storm read p99 {:.1} µs is more than 3x the no-writer baseline {:.1} µs — \
         reads are queueing behind the writer",
        storm.read_p99_us,
        baseline.read_p99_us
    );

    println!("\nmany sessions:");
    let (connections, per_conn) = (32, 32);
    let (peak, end) = run_many_sessions(connections, per_conn);
    assert!(
        peak >= 1000,
        "only {peak} sessions live concurrently; wanted >= 1000"
    );
    assert_eq!(end, 0, "sessions leaked after close");

    let scaling_value = obj([
        ("pairs", Value::int(PAIRS as i64)),
        ("clients", Value::int(clients as i64)),
        ("base_median_rps", num(base_median, 1)),
        ("loaded_median_rps", num(loaded_median, 1)),
        ("throughput_scaling", num(scaling, 2)),
        ("bench2_reference_scaling", num(BENCH2_REFERENCE_SCALING, 2)),
        ("gate_improves_on_bench2", Value::Bool(true)),
    ]);
    let read_heavy = obj([
        ("readers", Value::int(4)),
        (
            "seconds_per_phase",
            num(baseline.wall_secs.max(storm.wall_secs), 1),
        ),
        (
            "baseline",
            obj([
                ("read_p99_us", num(baseline.read_p99_us, 1)),
                ("per_method", per_method_value(&baseline.per_method)),
            ]),
        ),
        (
            "storm",
            obj([
                ("read_p99_us", num(storm.read_p99_us, 1)),
                (
                    "writer_publishes",
                    Value::int(storm.writer_publishes as i64),
                ),
                ("snapshot_reads", Value::int(storm.snapshot_reads as i64)),
                ("per_method", per_method_value(&storm.per_method)),
            ]),
        ),
        ("read_p99_ratio", num(ratio, 2)),
        ("gate_read_p99_within_3x", Value::Bool(true)),
    ]);
    let many_sessions = obj([
        ("connections", Value::int(connections as i64)),
        ("sessions", Value::int((connections * per_conn) as i64)),
        ("peak_live_sessions", Value::int(peak as i64)),
        ("gate_1k_sessions", Value::Bool(true)),
    ]);
    let report = obj([
        ("generated_by", Value::str("ped-bench 6")),
        ("available_parallelism", Value::int(cores as i64)),
        ("scaling", scaling_value),
        ("read_heavy", read_heavy),
        ("many_sessions", many_sessions),
    ]);
    write_report(out, &report);
}

/// The server half of `--smoke`: concurrent bytes must equal the
/// sequential oracle's.
pub fn smoke() {
    println!("ped-bench --smoke: {CLIENTS} oracle-checked server clients");
    run_scenario(CLIENTS, 1, true);
    println!("ped-bench --smoke: server responses byte-identical to the oracle");
}
