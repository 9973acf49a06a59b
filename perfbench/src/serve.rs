//! The serve-mixed workload: a durable daemon (`Server::bind_durable`,
//! `ServePolicy::Trust`) driven by two closed-loop clients over real
//! sockets.
//!
//! * The clean client sends `POST /clean` for each of the `/clean` tables
//!   in turn, for [`CLEAN_ROUNDS`] rounds. Round one enriches the KB and
//!   appends to the journal; later rounds are the warm requests.
//! * The delta client bootstraps one `POST /delta` session and replays 1%
//!   edit batches against it until the clean client is done,
//!   re-bootstrapping if the daemon answers `409`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use katara_core::repair::Repair;
use katara_core::{CandidateConfig, Katara, KataraConfig, Threads};
use katara_crowd::{Answer, Crowd, CrowdConfig, Oracle, Question};
use katara_eval::metrics::repair_precision_recall;
use katara_kb::ntriples::local_name;
use katara_kb::{EnrichmentDelta, Journal, JournalConfig, Kb, KbBuilder};
use katara_serve::{ServePolicy, Server, ServerConfig, ServerHandle};
use katara_table::Table;

use crate::inputs::{Inputs, SERVE_CLEAN_TABLES};
use crate::json::Json;
use crate::layers::{self, Outcome};
use crate::metrics::{median, ms_since, peak_rss_mb, quantile, timed, RunResult};

/// Daemon boots per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 2;
/// Rounds of the clean client over the `/clean` tables.
pub const CLEAN_ROUNDS: usize = 5;
/// Delta replays in the traced run's outside-in session.
const TRACE_REPLAYS: u64 = 5;

/// One HTTP/1.1 exchange on a fresh connection: (status, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(150)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A parsed `200` body, or why the exchange failed.
fn ok_body(r: std::io::Result<(u16, String)>) -> Result<Json, String> {
    let (status, body) = r.map_err(|e| format!("transport: {e}"))?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let json = Json::parse(&body).map_err(|e| format!("unparseable body ({e}): {body}"))?;
    match json.get("status").and_then(Json::str) {
        Some("ok") => Ok(json),
        other => Err(format!("report status {other:?}")),
    }
}

/// A running daemon and its journal directory.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Load the KB from text, boot a durable daemon on `dir` and wait for a
/// healthy `/healthz`. Returns the daemon, the load time and the whole
/// set-up time, in seconds.
fn boot(text: &str, dir: &Path) -> (Daemon, f64, f64) {
    let start = Instant::now();
    let kb = katara_kb::ntriples::parse("yago", text).expect("generated N-Triples parse");
    let load_s = start.elapsed().as_secs_f64();
    let config = ServerConfig {
        threads: Threads::auto(),
        ..ServerConfig::default()
    };
    let (server, _replay) =
        Server::bind_durable(config, kb, ServePolicy::Trust, dir).expect("durable daemon boots");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    loop {
        if let Ok((200, body)) = request(addr, "GET", "/healthz", b"") {
            if body.contains("\"status\":\"ok\"") {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup_s = start.elapsed().as_secs_f64();
    (
        Daemon {
            addr,
            handle,
            thread,
        },
        load_s,
        setup_s,
    )
}

/// Exact-match F-measure of a described pattern
/// (`A(kb:soccer_player), B(kb:country); A -kb:isCitizenOf-> B`) against
/// the table's ground truth: a typed column or an edge counts when its
/// local name equals the truth's.
fn described_pattern_f1(described: &str, header: &[String], inputs: &Inputs, t: usize) -> f64 {
    let gt = &inputs.tables[t].clean.ground_truth;
    let want_types = gt.types_for(inputs.kbgen.flavor);
    let want_rels = gt.rels_for(&inputs.kbgen);
    let col = |name: &str| header.iter().position(|h| h == name.trim());
    let (nodes, edges) = described.split_once("; ").unwrap_or((described, ""));
    let (mut claims, mut correct) = (0usize, 0usize);
    for node in nodes.split(", ").filter(|n| !n.is_empty()) {
        let Some((name, class)) = node.trim_end_matches(')').split_once('(') else {
            continue;
        };
        if class == "·" {
            continue;
        }
        claims += 1;
        let want = col(name).and_then(|c| want_types.get(c).copied().flatten());
        correct += usize::from(want == Some(local_name(class)));
    }
    for edge in edges.split(", ").filter(|e| !e.is_empty()) {
        let mut parts = edge.split(' ');
        let (Some(s), Some(p), Some(o)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        claims += 1;
        let prop = local_name(p.trim_start_matches('-').trim_end_matches("->"));
        let hit = match (col(s), col(o)) {
            (Some(i), Some(j)) => want_rels.contains(&(i, j, prop)),
            _ => false,
        };
        correct += usize::from(hit);
    }
    let truth = want_types.iter().flatten().count() + want_rels.len();
    if claims == 0 || truth == 0 || correct == 0 {
        return 0.0;
    }
    let (p, r) = (
        correct as f64 / claims as f64,
        correct as f64 / truth as f64,
    );
    2.0 * p * r / (p + r)
}

/// Top-1 repair F-measure of a response's `repairs` against table `t`'s
/// corruption log.
fn response_repair_f1(json: &Json, inputs: &Inputs, t: usize) -> f64 {
    let proposals: Vec<(usize, Vec<Repair>)> = json
        .get("repairs")
        .and_then(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            let row = r.get("row")?.num()? as usize;
            let cost = r.get("cost")?.num()?;
            let changes = r
                .get("changes")?
                .arr()?
                .iter()
                .filter_map(|c| {
                    let c = c.arr()?;
                    Some((c.first()?.num()? as usize, c.get(1)?.str()?.to_string()))
                })
                .collect();
            Some((row, vec![Repair { cost, changes }]))
        })
        .collect();
    repair_precision_recall(&inputs.tables[t].log, &proposals).f_measure()
}

/// What the delta client saw.
#[derive(Default)]
struct DeltaClient {
    replay_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    rebootstraps: u64,
}

/// The delta client: bootstrap a session for table `t`, then replay edit
/// batches until `stop` is set.
fn delta_client(addr: SocketAddr, inputs: &Inputs, t: usize, stop: &AtomicBool) -> DeltaClient {
    let mut out = DeltaClient::default();
    let mut shadow = inputs.tables[t].dirty.clone();
    let columns = shadow.columns().to_vec();
    let bootstrap = |out: &mut DeltaClient, shadow: &Table| -> Option<String> {
        out.attempted += 1;
        let body = katara_table::csv::to_string(shadow);
        match ok_body(request(addr, "POST", "/delta", body.as_bytes())) {
            Ok(json) => json.get("session").and_then(Json::str).map(str::to_string),
            Err(e) => {
                out.failures.push(format!("delta bootstrap: {e}"));
                None
            }
        }
    };
    let Some(mut session) = bootstrap(&mut out, &shadow) else {
        return out;
    };
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let edits = inputs.edits(t, i, &shadow);
        i += 1;
        let body = edits.to_csv(&columns);
        let t0 = Instant::now();
        let r = request(
            addr,
            "POST",
            &format!("/delta?base={session}"),
            body.as_bytes(),
        );
        let ms = ms_since(t0);
        if let Ok((409, _)) = r {
            out.rebootstraps += 1;
            match bootstrap(&mut out, &shadow) {
                Some(s) => session = s,
                None => return out,
            }
            continue;
        }
        out.attempted += 1;
        match ok_body(r) {
            Ok(_) => {
                edits.apply(&mut shadow).expect("generated edits apply");
                out.replay_ms.push(ms);
            }
            Err(e) => {
                out.failures.push(format!("delta replay {i}: {e}"));
                return out;
            }
        }
    }
    out
}

/// The daemon's crowd under `ServePolicy::Trust`: choice questions take
/// the top-ranked candidate, fact questions are presumed true.
struct Trust;

impl Oracle for Trust {
    fn answer(&self, q: &Question) -> Answer {
        match q {
            Question::Fact { .. } => Answer::Bool(true),
            _ => Answer::Choice(0),
        }
    }
}

fn trust_crowd() -> Crowd<Trust> {
    Crowd::new(
        CrowdConfig {
            replication: 1,
            worker_accuracy: 1.0,
            ..CrowdConfig::default()
        },
        Trust,
    )
    .expect("trust crowd config is valid")
}

/// The pipeline configuration the daemon runs for `/clean`
/// (`enrich` on) and for `/delta` sessions (`enrich` off).
fn daemon_config(enrich: bool) -> KataraConfig {
    let mut config = KataraConfig {
        threads: Threads::auto(),
        candidates: CandidateConfig {
            threads: Threads::auto(),
            ..CandidateConfig::default()
        },
        ..KataraConfig::default()
    };
    config.validation.questions_per_variable = 1;
    config.annotation.enrich_kb = enrich;
    config
}

/// One untraced or traced run of serve-mixed.
pub fn run(inputs: &Inputs, trace: bool, tmp: &Path) -> RunResult {
    let mut out = RunResult::default();

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut daemon = None;
    let mut dir = tmp.to_path_buf();
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = tmp.join(format!("daemon-{rep}"));
        let (d, load_s, setup_s) = boot(&inputs.kb_text, &dir);
        loads.push(load_s);
        setups.push(setup_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one boot");
    out.set("setup_s", median(&setups));
    out.set("ntriples.parse_s", median(&loads));
    eprintln!(
        "perfbench: daemon up, set-up median {:.3} s over {SETUP_REPS} boots",
        median(&setups)
    );

    // Traffic: the delta client on its own thread, the clean client here.
    let stop = AtomicBool::new(false);
    let (clean_ms, delta) = std::thread::scope(|s| {
        let delta = s.spawn(|| delta_client(daemon.addr, inputs, 0, &stop));
        let mut clean_ms = Vec::new();
        let (mut questions, mut pattern_f1, mut repair_f1) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..CLEAN_ROUNDS {
            for t in 0..SERVE_CLEAN_TABLES {
                let table = &inputs.tables[t].dirty;
                let body = katara_table::csv::to_string(table);
                let t0 = Instant::now();
                let r = request(daemon.addr, "POST", "/clean", body.as_bytes());
                let ms = ms_since(t0);
                let parsed = ok_body(r);
                out.op(parsed.is_ok());
                match parsed {
                    Ok(json) => {
                        clean_ms.push(ms);
                        let described = json.get("pattern").and_then(Json::str).unwrap_or("");
                        pattern_f1.push(described_pattern_f1(
                            described,
                            table.columns(),
                            inputs,
                            t,
                        ));
                        repair_f1.push(response_repair_f1(&json, inputs, t));
                        questions.push(
                            json.at(&["degradation", "questions_asked"])
                                .and_then(Json::num)
                                .unwrap_or(f64::NAN),
                        );
                        eprintln!(
                            "perfbench: /clean round {round} table {t}: {ms:.1} ms, {} questions",
                            questions.last().copied().unwrap_or(f64::NAN)
                        );
                    }
                    Err(e) => out.check(false, || format!("/clean round {round} table {t}: {e}")),
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        let delta = delta.join().expect("delta client");
        out.set(
            "crowd_questions",
            questions.iter().sum::<f64>() / questions.len().max(1) as f64,
        );
        out.set("pattern_f1", median(&pattern_f1));
        out.set("repair.f1", median(&repair_f1));
        (clean_ms, delta)
    });
    out.attempted += delta.attempted;
    out.failed += delta.failures.len() as u64;
    for f in &delta.failures {
        out.check(false, || f.clone());
    }
    out.set("clean_p50_ms", median(&clean_ms));
    eprintln!(
        "perfbench: {} /clean p50 {:.1} ms; {} /delta replays p50 {:.2} ms p90 {:.2} ms",
        clean_ms.len(),
        median(&clean_ms),
        delta.replay_ms.len(),
        median(&delta.replay_ms),
        quantile(&delta.replay_ms, 0.9)
    );

    // The daemon's own counters, then drain.
    let metrics = request(daemon.addr, "GET", "/metrics", b"")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| Json::parse(&body).ok());
    out.check(metrics.is_some(), || "GET /metrics failed".to_string());
    let counter = |name: &str| {
        metrics
            .as_ref()
            .and_then(|m| m.at(&["deterministic", "counters", name]))
            .and_then(Json::num)
            .unwrap_or(0.0)
    };
    let appends = counter("journal.appends");
    let (hits, misses) = (
        counter("serve.snapshot_hit"),
        counter("serve.snapshot_miss"),
    );
    out.set("journal.fsyncs", counter("journal.fsyncs"));
    out.set("serve.shed", counter("serve.shed"));
    out.set("serve.rebootstraps", delta.rebootstraps as f64);
    out.set(
        "serve.snapshot_hit_frac",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set(
        "serve.requests",
        (clean_ms.len() + delta.replay_ms.len()) as f64,
    );
    out.check(appends > 0.0, || {
        "the first /clean round journaled no enrichment".to_string()
    });
    Daemon::stop(daemon);
    out.set("peak_rss_mb", peak_rss_mb());

    // Durability: the journal the daemon left behind replays exactly the
    // appends it reported. The traced run reopens it with `Journal::open`
    // (timed, then an append and a checkpoint on top); the untraced run
    // checks with `recover_dir`, the read-only replay `Journal::open`
    // starts with, which skips the compaction's second KB load.
    let records = std::fs::read(dir.join("journal.log"))
        .ok()
        .and_then(|bytes| katara_kb::journal::scan(&bytes).ok())
        .map(|scan| scan.records)
        .unwrap_or_default();
    let deltas: Vec<EnrichmentDelta> = records.into_iter().map(|(_, d)| d).collect();
    let replayed = if trace {
        // `Journal::open` replaces the KB it is given with the checkpoint.
        let mut reopened = KbBuilder::new().finalize();
        let (opened, replay_ms) =
            timed(|| Journal::open(&dir, &mut reopened, JournalConfig::default()));
        out.set("journal.replay_ms", replay_ms);
        opened.map(|(mut journal, report)| {
            let mut append_ms = 0.0;
            for d in &deltas {
                let (r, ms) = timed(|| journal.append(d));
                append_ms += ms;
                out.check(r.is_ok(), || format!("journal append failed: {r:?}"));
            }
            let (r, ms) = timed(|| journal.checkpoint(&mut reopened));
            out.check(r.is_ok(), || format!("journal checkpoint failed: {r:?}"));
            out.set("journal.append_ms", append_ms);
            out.set("journal.checkpoint_ms", ms);
            report.replayed_records
        })
    } else {
        katara_kb::journal::recover_dir(&dir).map(|(_, report)| report.replayed_records)
    };
    match replayed {
        Ok(n) => out.check(n as f64 == appends, || {
            format!("replaying the daemon's journal applied {n} records, /metrics reported {appends} appends")
        }),
        Err(e) => out.check(false, || format!("replaying the daemon's journal failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if trace {
        traced_layers(inputs, &deltas, &mut out);
    }
    out
}

/// Outside-in layer measurements on the serve workload's inputs, with
/// the daemon's pipeline configuration and crowd policy: the daemon's
/// in-process `resolve.*` counters read 0 (its cached resolution carries
/// a no-op recorder), so these come from the benchmark's own calls.
fn traced_layers(inputs: &Inputs, deltas: &[EnrichmentDelta], out: &mut RunResult) {
    let base: Kb =
        katara_kb::ntriples::parse("yago", &inputs.kb_text).expect("generated N-Triples parse");
    let table = &inputs.tables[0].dirty;
    let config = daemon_config(true);

    let mut kb = base.clone();
    let (reference, clean_ms) =
        timed(|| Katara::new(config.clone()).clean(table, &mut kb, &mut trust_crowd()));
    drop(kb);
    let mut kb = base.clone();
    let staged = layers::staged_run(table, &mut kb, &mut trust_crowd(), &config, out);
    drop(kb);
    out.check(
        reference.as_ref().ok().map(Outcome::of).as_ref() == Some(&staged.outcome),
        || "staged run differs from Katara::clean under the daemon's config".to_string(),
    );
    out.set("trace.overhead_ms", staged.total_ms - clean_ms);

    layers::label_and_probe_splits(table, &base, config.candidates.max_rows, out);
    layers::annotate_split(table, &base, &mut trust_crowd(), &staged, &config, out);

    // Kb::clone, and apply_delta of everything the daemon journaled.
    let mut merged = EnrichmentDelta::default();
    for d in deltas {
        merged.ops.extend(d.ops.iter().cloned());
    }
    drop(layers::clone_and_apply(&base, &merged, out));

    let mut kb = base;
    layers::delta_splits(
        table,
        &mut kb,
        &daemon_config(false),
        &trust_crowd,
        &|i, current| inputs.edits(0, i, current),
        TRACE_REPLAYS,
        out,
    );
}
