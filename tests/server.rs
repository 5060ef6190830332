//! Concurrency correctness of `ped-serve`: N concurrent TCP clients
//! replaying the persona wire scripts must receive responses
//! byte-identical to a single-threaded in-process `PedSession` oracle —
//! the server may interleave sessions any way it likes, but it must
//! never let them observe each other.

use ped_server::{Backend, ManagerConfig, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A synthetic unit with `arrays` recurrences: every `deps` response
/// carries a few hundred bytes per array, so a handful of arrays makes
/// responses big enough to exercise write-buffer backpressure.
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

fn open_source_request(id: u32, session: &str, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"method\":\"open\",\"params\":{{\"session\":\"{session}\",\"source\":\"{}\"}}}}",
        source.replace('\n', "\\n")
    )
}

fn deps_request(id: u32, session: &str) -> String {
    format!("{{\"id\":{id},\"method\":\"deps\",\"params\":{{\"session\":\"{session}\"}}}}")
}

fn spawn_server(cfg: ServerConfig) -> ped_server::ServerHandle {
    ped_server::spawn(cfg).expect("spawn server")
}

/// Send each line and collect one trimmed response line per request.
fn replay(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            assert!(resp.ends_with('\n'), "truncated response for {line}");
            resp.trim_end().to_string()
        })
        .collect()
}

#[test]
fn concurrent_clients_byte_identical_to_oracle() {
    const CLIENTS: usize = 8;
    let mut server = spawn_server(ServerConfig {
        workers: CLIENTS,
        manager: ManagerConfig {
            max_sessions: 256,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.addr;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                // Every client replays all eight scripts over one
                // connection, under its own session-id prefix.
                for ws in ped_workloads::scripts::all_scripts(&format!("t{c}")) {
                    let got = replay(addr, &ws.lines);
                    let want = ped_server::oracle_replay(&ws.lines);
                    assert_eq!(
                        got, want,
                        "client {c} script '{}': server response diverged from the \
                         single-threaded oracle",
                        ws.persona
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client panicked");
    }
    // Every script closed its sessions; the registry must be empty.
    assert_eq!(server.manager.len(), 0);
    let (opened, closed, _) = server.manager.counters();
    assert_eq!(opened, (CLIENTS * 8) as u64);
    assert_eq!(closed, opened);
    server.stop();
}

#[test]
fn oversized_requests_are_rejected() {
    let mut server = spawn_server(ServerConfig {
        max_request_bytes: 256,
        ..Default::default()
    });
    let stream = TcpStream::connect(server.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let huge = format!(
        "{{\"id\":1,\"method\":\"ping\",\"params\":{{\"pad\":\"{}\"}}}}\n",
        "x".repeat(1024)
    );
    writer.write_all(huge.as_bytes()).unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");
    // The connection was closed to recover framing.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
    server.stop();
}

#[test]
fn deeply_nested_request_gets_an_error_and_other_sessions_keep_answering() {
    let mut server = spawn_server(ServerConfig::default());
    let connect = || {
        let stream = TcpStream::connect(server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        (stream.try_clone().unwrap(), BufReader::new(stream))
    };
    let ask = |(w, r): &mut (TcpStream, BufReader<TcpStream>), line: &str| {
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "no complete response to {line:.40}");
        resp.trim_end().to_string()
    };
    let requests = [
        open_source_request(1, "calm", &recurrence_source(2)),
        deps_request(2, "calm"),
        "{\"id\":3,\"method\":\"ping\"}".to_string(),
        deps_request(4, "calm"),
        "{\"id\":5,\"method\":\"close\",\"params\":{\"session\":\"calm\"}}".to_string(),
    ];
    let want = ped_server::oracle_replay(&requests);
    let mut calm = connect();
    let mut got: Vec<String> = requests[..2].iter().map(|q| ask(&mut calm, q)).collect();

    // One 20,000-deep line: the parser must refuse it, not recurse until
    // the event-loop thread's stack overflows.
    let mut hostile = connect();
    let resp = ask(&mut hostile, &"[".repeat(20_000));
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("bad request"), "{resp}");
    assert!(resp.contains("nesting"), "{resp}");

    got.extend(requests[2..].iter().map(|q| ask(&mut calm, q)));
    assert_eq!(got, want, "open session diverged from the oracle");
    server.stop();
}

#[test]
fn shutdown_request_stops_the_server_gracefully() {
    let mut server = spawn_server(ServerConfig::default());
    let addr = server.addr;
    let resp = replay(addr, &["{\"id\":1,\"method\":\"shutdown\"}".to_string()]);
    assert!(resp[0].contains("\"shutdown\":true"), "{resp:?}");
    let t = Instant::now();
    while !server.is_shutting_down() && t.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.is_shutting_down());
    server.stop(); // joins the accept loop and workers
                   // New connections are refused (or reset on first use) once down.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(s) => {
            let mut w = s.try_clone().unwrap();
            let gone = w.write_all(b"{\"id\":2,\"method\":\"ping\"}\n").is_err()
                || BufReader::new(s).read_line(&mut String::new()).unwrap_or(0) == 0;
            gone
        }
    };
    assert!(refused, "server still serving after shutdown");
}

#[test]
fn idle_sessions_are_evicted_over_the_wire() {
    let mut server = spawn_server(ServerConfig {
        eviction_interval: Duration::from_millis(50),
        manager: ManagerConfig {
            idle_ttl: Duration::from_millis(100),
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.addr;
    let resp = replay(
        addr,
        &[
            "{\"id\":1,\"method\":\"open\",\"params\":{\"session\":\"idle\",\"program\":\"pueblo3d\"}}"
                .to_string(),
        ],
    );
    assert!(resp[0].contains("\"ok\":true"), "{resp:?}");
    // Wait out the TTL plus a sweep.
    let t = Instant::now();
    while server.manager.len() > 0 && t.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(server.manager.len(), 0, "idle session never evicted");
    let resp = replay(
        addr,
        &["{\"id\":2,\"method\":\"deps\",\"params\":{\"session\":\"idle\"}}".to_string()],
    );
    assert!(
        resp[0].contains("unknown session"),
        "evicted session still answers: {resp:?}"
    );
    server.stop();
}

#[test]
fn inflight_responses_flush_fully_before_shutdown_closes() {
    const DEPS_REQUESTS: u32 = 600;
    let mut server = spawn_server(ServerConfig {
        // Big enough that a pile of queued responses is backpressure,
        // not a protocol violation — this test is about drain.
        write_buf_cap: 64 << 20,
        ..Default::default()
    });
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();

    // Pipeline everything without reading a byte: open, select, then a
    // storm of large deps responses that cannot all fit in kernel
    // socket buffers.
    let mut batch = open_source_request(1, "drain", &recurrence_source(64));
    batch.push('\n');
    batch.push_str(
        "{\"id\":2,\"method\":\"select_loop\",\"params\":{\"session\":\"drain\",\"loop\":0}}\n",
    );
    for id in 0..DEPS_REQUESTS {
        batch.push_str(&deps_request(3 + id, "drain"));
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();
    // Give the loop time to read and dispatch the whole pipeline; the
    // responses are now split between kernel buffers and the server's
    // write buffer.
    std::thread::sleep(Duration::from_millis(1500));

    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut lines = 0u32;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return lines;
            }
            assert!(line.ends_with('\n'), "truncated response during drain");
            lines += 1;
        }
    });
    // Shutdown races the reader: the drain must keep flushing queued
    // responses (partial-write aware) until the client has them all.
    server.stop();
    let got = reader.join().expect("reader panicked");
    assert_eq!(
        got,
        2 + DEPS_REQUESTS,
        "shutdown drain dropped queued responses"
    );
}

#[test]
fn session_eviction_racing_reads_never_corrupts_responses() {
    let mut server = spawn_server(ServerConfig {
        eviction_interval: Duration::from_millis(10),
        manager: ManagerConfig {
            idle_ttl: Duration::from_millis(20),
            ..Default::default()
        },
        ..Default::default()
    });
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |req: &str| -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "truncated response for {req}");
        resp.trim_end().to_string()
    };
    let source = recurrence_source(2);
    let mut evicted_midstream = 0u32;
    let mut id = 1u32;
    let open = |id: u32| open_source_request(id, "racer", &source);
    let r = ask(&open(id));
    assert!(r.contains("\"ok\":true"), "{r}");
    for round in 0..150u32 {
        id += 1;
        let r = ask(&deps_request(id, "racer"));
        // Every response must be a clean success or a clean
        // unknown-session error — an evicted-mid-read session must
        // never tear a reply or wedge the connection.
        if r.contains("\"ok\":true") {
            assert!(r.contains("\"deps\""), "{r}");
        } else {
            assert!(r.contains("unknown session"), "{r}");
            evicted_midstream += 1;
            id += 1;
            let r = ask(&open(id));
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        if round % 10 == 0 {
            // Let the TTL lapse so the janitor actually fires.
            std::thread::sleep(Duration::from_millis(30));
        }
    }
    assert!(
        evicted_midstream > 0,
        "eviction never raced the read stream; tighten the TTL"
    );
    let r = ask("{\"id\":9999,\"method\":\"ping\"}");
    assert!(r.contains("\"pong\":true"), "{r}");
    server.stop();
}

#[test]
fn byte_dribble_client_is_served_correctly() {
    let mut server = spawn_server(ServerConfig::default());
    let stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let requests = [
        "{\"id\":1,\"method\":\"ping\"}".to_string(),
        open_source_request(2, "drip", &recurrence_source(1)),
        deps_request(3, "drip"),
        "{\"id\":4,\"method\":\"close\",\"params\":{\"session\":\"drip\"}}".to_string(),
    ];
    let want = ped_server::oracle_replay(&requests);
    for (req, want) in requests.iter().zip(&want) {
        // One byte per write: the loop must accumulate partial frames
        // across arbitrarily many readiness events.
        for b in req.as_bytes() {
            writer.write_all(std::slice::from_ref(b)).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), want, "dribbled request diverged");
    }
    server.stop();
}

#[test]
fn never_reading_client_is_disconnected_at_the_write_cap() {
    let mut server = spawn_server(ServerConfig {
        write_buf_cap: 1 << 20,
        ..Default::default()
    });
    let addr = server.addr;
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();

    // ~19 KB per deps response; thousands of pipelined requests while
    // never reading must blow past kernel buffers plus the 1 MiB cap.
    let mut batch = open_source_request(1, "hog", &recurrence_source(64));
    batch.push('\n');
    batch.push_str(
        "{\"id\":2,\"method\":\"select_loop\",\"params\":{\"session\":\"hog\",\"loop\":0}}\n",
    );
    for id in 0..4000u32 {
        batch.push_str(&deps_request(3 + id, "hog"));
        batch.push('\n');
    }
    // The server may cut us off mid-write; that's the point.
    let _ = writer.write_all(batch.as_bytes());
    let _ = writer.flush();

    // The connection must die (EOF or reset) rather than buffer
    // without bound; drain whatever was flushed before the cut.
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "server kept feeding a client that never reads"
        );
    }
    // The server itself is unharmed.
    let resp = replay(addr, &["{\"id\":1,\"method\":\"ping\"}".to_string()]);
    assert!(resp[0].contains("\"pong\":true"), "{resp:?}");
    server.stop();
}

#[test]
fn poll_and_scan_backends_match_the_oracle() {
    for backend in [Backend::Poll, Backend::Scan] {
        let mut server = spawn_server(ServerConfig {
            backend: Some(backend),
            ..Default::default()
        });
        let addr = server.addr;
        for ws in ped_workloads::scripts::all_scripts("fb")
            .into_iter()
            .take(3)
        {
            let got = replay(addr, &ws.lines);
            let want = ped_server::oracle_replay(&ws.lines);
            assert_eq!(
                got, want,
                "backend {backend:?} script '{}' diverged from the oracle",
                ws.persona
            );
        }
        server.stop();
    }
}
