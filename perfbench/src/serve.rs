//! `serve_tenants`: a fresh in-process `tunio_serve::Daemon` driven over
//! loopback HTTP by a closed loop of two clients.
//!
//! Each client submits the daemon-default campaign (`tunio` pipeline,
//! kernel, 10 iterations x 6), tails its event stream until `done`, then
//! submits the next. Four tenants each keep one seed, and apps rotate, so
//! every (tenant, app) pair recurs and its warm cache hits on the repeat.
//! The load generator never panics on a reply: refusals, `failed` events,
//! transport errors and timeouts are counted and the loop goes on.

use crate::host::HostSpeed;
use crate::layers::{self, LayerSample, Pretraining, ServeSamples};
use crate::quality::Quality;
use crate::report::{Metric, RunReport};
use crate::{derive_seed, peak_rss_mb, phase, setup_median, stats, Args, SETUPS};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tunio::pipeline::{outcome_json, run_campaign, CampaignOutcome};
use tunio_serve::daemon::CampaignRequest;
use tunio_serve::{Daemon, ServeConfig};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const TENANTS: usize = 4;
/// The daemon-default campaign shape the submissions leave implicit.
const ITERATIONS: u32 = 10;
const POPULATION: usize = 6;
/// Submissions per client that every run completes: between them the
/// two clients visit all twenty (tenant, app) pairs once.
const MIN_PER_CLIENT: usize = 10;
/// Gap between event polls. Campaigns last hundreds of milliseconds, so
/// the quantisation this adds to latency is a few percent at most.
const POLL_GAP: Duration = Duration::from_millis(10);
/// A campaign not done after this long counts as timed out.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the run keeps its daemon WAL directories: inside the working
/// directory, removed when the run ends.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()))
}

/// One HTTP/1.1 exchange with the daemon (which answers
/// `Connection: close`). Every failure is an `Err`, never a panic.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|_| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("socket: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| "truncated response".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in `{head}`"))?;
    Ok((status, body.to_string()))
}

fn parse(body: &str) -> Option<serde_json::Value> {
    serde_json::from_str(body).ok()
}

/// Submission `k` of client `c`: `j = 2k + c` walks tenants fastest and
/// apps next, so any twenty consecutive submissions cover every pair.
fn pair(c: usize, k: usize) -> (usize, usize) {
    let j = CLIENTS * k + c;
    (j % TENANTS, (j / TENANTS) % APPS.len())
}

const APPS: [&str; 5] = ["hacc", "vpic", "flash", "macsio-vpic-dipole", "bdcats"];

/// A `POST /campaigns` body that leaves every campaign setting but the
/// app (and, when given, the seed) to the daemon's defaults.
fn submission(tenant: &str, app: usize, seed: Option<u64>) -> String {
    let seed = seed.map_or(String::new(), |s| format!(",\"seed\":{s}"));
    format!(
        "{{\"tenant\":\"{tenant}\",\"app\":\"{}\"{seed}}}",
        APPS[app]
    )
}

/// What one submission came to.
#[derive(Debug, Clone, Default)]
struct Served {
    tenant: usize,
    app: usize,
    id: Option<String>,
    sent_s: f64,
    first_result_s: Option<f64>,
    campaign_s: Option<f64>,
    done_at_s: Option<f64>,
    error: Option<String>,
    layer: Option<LayerSample>,
}

#[derive(Debug)]
struct ClientLog {
    served: Vec<Served>,
    http: ServeSamples,
    host: HostSpeed,
}

struct Loop<'a> {
    addr: SocketAddr,
    wal_dir: &'a Path,
    tenant_seeds: &'a [u64],
    window_start: Instant,
    deadline: Instant,
    traced: bool,
}

impl Loop<'_> {
    fn client(&self, c: usize) -> ClientLog {
        let mut log = ClientLog {
            served: Vec::new(),
            http: ServeSamples::default(),
            host: HostSpeed::new(),
        };
        let mut k = 0;
        while Instant::now() < self.deadline || k < MIN_PER_CLIENT {
            let (tenant, app) = pair(c, k);
            k += 1;
            let served = self.one(tenant, app, &mut log.http);
            if served.id.is_none() {
                // Refused or unreachable: back off before the next try so
                // a refusing daemon is not hammered.
                std::thread::sleep(Duration::from_millis(50));
            }
            // Host speed, while the other client's campaign runs.
            if !self.traced {
                log.host.sample();
            }
            log.served.push(served);
        }
        log
    }

    fn one(&self, tenant: usize, app: usize, http_log: &mut ServeSamples) -> Served {
        let mut served = Served {
            tenant,
            app,
            ..Served::default()
        };
        if self.traced {
            let t = Instant::now();
            if let Ok((200, _)) = http(self.addr, "GET", "/healthz", "") {
                http_log.healthz_s.push(t.elapsed().as_secs_f64());
            }
        }
        let body = submission(
            &format!("tenant{tenant}"),
            app,
            Some(self.tenant_seeds[tenant]),
        );
        let sent = Instant::now();
        served.sent_s = (sent - self.window_start).as_secs_f64();
        let id = match http(self.addr, "POST", "/campaigns", &body) {
            Ok((202, reply)) => {
                match parse(&reply).and_then(|v| v.get("id")?.as_str().map(String::from)) {
                    Some(id) => id,
                    None => {
                        served.error = Some(format!("202 without an id: {reply}"));
                        return served;
                    }
                }
            }
            Ok((status, reply)) => {
                served.error = Some(format!("refused {status}: {reply}"));
                return served;
            }
            Err(e) => {
                served.error = Some(e);
                return served;
            }
        };
        http_log.submit_s.push(sent.elapsed().as_secs_f64());
        served.id = Some(id.clone());
        let mut from = 0usize;
        let mut polls = 0usize;
        loop {
            std::thread::sleep(POLL_GAP);
            if sent.elapsed() > CAMPAIGN_TIMEOUT {
                served.error = Some(format!("{id}: timed out"));
                return served;
            }
            let t = Instant::now();
            let events = match http(
                self.addr,
                "GET",
                &format!("/campaigns/{id}/events?from={from}"),
                "",
            ) {
                Ok((200, events)) => events,
                Ok((status, reply)) => {
                    served.error = Some(format!("{id}: events {status}: {reply}"));
                    return served;
                }
                // A transport hiccup: poll again.
                Err(_) => continue,
            };
            http_log.poll_s.push(t.elapsed().as_secs_f64());
            polls += 1;
            for line in events.lines() {
                from += 1;
                let now = sent.elapsed().as_secs_f64();
                if line.contains("\"event\":\"generation\"") {
                    served.first_result_s.get_or_insert(now);
                } else if line.contains("\"event\":\"failed\"") {
                    served.error = Some(format!("{id}: {line}"));
                    return served;
                } else if line.contains("\"event\":\"done\"") {
                    served.campaign_s = Some(now);
                    served.done_at_s = Some((Instant::now() - self.window_start).as_secs_f64());
                }
            }
            if served.campaign_s.is_some() {
                break;
            }
        }
        http_log.polls_per_campaign.push(polls as f64);
        if self.traced {
            match self.layer_sample(&id) {
                Ok((sample, warm)) => {
                    http_log.fully_warm.push(warm);
                    served.layer = Some(sample);
                }
                Err(e) => served.error = Some(format!("{id}: {e}")),
            }
        }
        served
    }

    /// Per-layer numbers of a finished campaign: status counters, the
    /// frozen timeline, and the size of its WAL.
    fn layer_sample(&self, id: &str) -> Result<(LayerSample, bool), String> {
        let status = match http(self.addr, "GET", &format!("/campaigns/{id}"), "")? {
            (200, body) => parse(&body).ok_or("unparsable status")?,
            (s, body) => return Err(format!("status {s}: {body}")),
        };
        let counters = status.get("counters").ok_or("no counters")?;
        let count = |k: &str| {
            counters
                .get(k)
                .and_then(|x| x.as_f64())
                .ok_or(format!("no {k}"))
        };
        let sim_wall_s = count("sim_wall_s")?;
        // The timeline freezes just after the state turns `done`.
        let mut timeline = None;
        for _ in 0..500 {
            if let (200, body) = http(self.addr, "GET", &format!("/campaigns/{id}/timeline"), "")? {
                let v = parse(&body).ok_or("unparsable timeline")?;
                if matches!(v.get("complete"), Some(serde_json::Value::Bool(true))) {
                    timeline = layers::segments_from_json(&v);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let (wall_s, segments) = timeline.ok_or("timeline never completed")?;
        let wal_bytes = std::fs::metadata(self.wal_dir.join(format!("{id}.jsonl")))
            .map_err(|e| format!("WAL: {e}"))?
            .len() as f64;
        Ok((
            LayerSample {
                wall_s,
                segments,
                wal_bytes,
                evaluations: count("evaluations")?,
                cache_hits: count("cache_hits")?,
                sim_wall_s,
                ..LayerSample::default()
            },
            sim_wall_s == 0.0,
        ))
    }
}

/// Boot a daemon on an empty WAL directory and wait until it answers
/// `/healthz`: what an operator does before sending load.
fn boot(wal_dir: &Path) -> Result<Daemon, String> {
    let mut daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        wal_dir: wal_dir.to_path_buf(),
        workers: WORKERS,
        max_active_per_tenant: 4,
        max_queue: 64,
        quiet: true,
        trace_path: None,
    })
    .map_err(|e| format!("daemon boot: {e}"))?;
    let started = Instant::now();
    while !matches!(http(daemon.addr(), "GET", "/healthz", ""), Ok((200, _))) {
        if started.elapsed() > Duration::from_secs(10) {
            daemon.drain_and_join();
            return Err("daemon never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(daemon)
}

pub fn execute(args: &Args) -> RunReport {
    let report = run(args, &scratch_dir());
    remove_scratch();
    report
}

/// Remove this run's scratch directory, and its parent when no other run
/// is using it.
pub fn remove_scratch() {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn run(args: &Args, dir: &Path) -> RunReport {
    let mut report = RunReport::default();
    phase("daemon set-ups".into(), true);
    // Boot several daemons, each on its own empty WAL directory, and keep
    // the last; earlier ones are drained and joined outside the timing.
    let booted = setup_median(
        SETUPS,
        |k| {
            let wal_dir = dir.join(format!("wal-{k}"));
            boot(&wal_dir).map(|d| (d, wal_dir))
        },
        |(mut d, _): (Daemon, PathBuf)| d.drain_and_join(),
    );
    let (setup_s, (mut daemon, wal_dir)) = match booted {
        Ok(v) => v,
        Err(e) => {
            report.check("setup", false, e);
            return report;
        }
    };

    let tenant_seeds: Vec<u64> = (0..TENANTS as u64)
        .map(|t| derive_seed(args.seed, 3, t))
        .collect();
    let sink = args.trace.then(tunio_trace::install_memory_sink);
    phase(format!("closed loop of {CLIENTS} clients"), true);
    let window_start = Instant::now();
    let lp = Loop {
        addr: daemon.addr(),
        wal_dir: &wal_dir,
        tenant_seeds: &tenant_seeds,
        window_start,
        deadline: window_start + Duration::from_secs(args.seconds),
        traced: args.trace,
    };
    let finished = AtomicUsize::new(0);
    let mut surrogate_fits = 0usize;
    let logs: Vec<Option<ClientLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (lp, finished) = (&lp, &finished);
                s.spawn(move || {
                    let log = lp.client(c);
                    finished.fetch_add(1, Ordering::SeqCst);
                    log
                })
            })
            .collect();
        // Keep the in-memory trace bounded while the clients run.
        while finished.load(Ordering::SeqCst) < CLIENTS {
            std::thread::sleep(Duration::from_millis(100));
            if let Some(sink) = &sink {
                surrogate_fits += layers::count_fits(&sink.take());
            }
        }
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let rss = peak_rss_mb();
    phase("daemon drain".into(), true);
    daemon.drain_and_join();
    if let Some(sink) = &sink {
        surrogate_fits += layers::count_fits(&sink.take());
        tunio_trace::clear_sink();
    }

    let panicked = logs.iter().filter(|l| l.is_none()).count();
    report.check(
        "clients",
        panicked == 0,
        format!("{panicked} of {CLIENTS} clients panicked"),
    );
    let mut http_log = ServeSamples::default();
    let mut host = HostSpeed::new();
    let mut served = Vec::new();
    for log in logs.into_iter().flatten() {
        host.merge(log.host);
        http_log.healthz_s.extend(log.http.healthz_s);
        http_log.submit_s.extend(log.http.submit_s);
        http_log.poll_s.extend(log.http.poll_s);
        http_log
            .polls_per_campaign
            .extend(log.http.polls_per_campaign);
        http_log.fully_warm.extend(log.http.fully_warm);
        served.extend(log.served);
    }
    let requests: Vec<stats::Request> = served
        .iter()
        .map(|s| stats::Request {
            sent_s: s.sent_s,
            done_s: s.done_at_s.filter(|_| s.error.is_none()),
        })
        .collect();
    let errors: Vec<String> = served.iter().filter_map(|s| s.error.clone()).collect();
    report.attempted = served.len() as u64;
    report.failed = errors.len() as u64;
    report.check(
        "campaigns_complete",
        errors.is_empty(),
        if errors.is_empty() {
            format!("{} campaigns", served.len())
        } else {
            errors.join("; ")
        },
    );

    // Output check: every served outcome equals `run_campaign` on the
    // same submission, one reference run per (tenant, app) pair. The
    // untraced run adds the quality block: the daemon-default campaign
    // (seed omitted) for every app, which the daemon serves byte for byte
    // as `run_campaign` returns it.
    let mut by_pair: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    for s in served.iter().filter(|s| s.campaign_s.is_some()) {
        if let Some(id) = &s.id {
            by_pair
                .entry((s.tenant, s.app))
                .or_default()
                .push(id.clone());
        }
    }
    let mut bodies: Vec<String> = by_pair
        .keys()
        .map(|&(t, a)| submission(&format!("tenant{t}"), a, Some(tenant_seeds[t])))
        .collect();
    if !args.trace {
        bodies.extend((0..APPS.len()).map(|a| submission("reference", a, None)));
    }
    phase(format!("{} reference runs", bodies.len()), true);
    let mut references = reference_outcomes(&bodies);
    let quality_refs = references.split_off(by_pair.len());
    let mut mismatches = Vec::new();
    for ((pair, ids), reference) in by_pair.iter().zip(&references) {
        let expected = match reference {
            Ok(outcome) => outcome_json(outcome),
            Err(e) => {
                mismatches.push(format!("{pair:?}: reference run failed: {e}"));
                continue;
            }
        };
        for id in ids {
            let path = wal_dir.join(format!("{id}.outcome.json"));
            match std::fs::read_to_string(&path) {
                Ok(got) if got == expected => {}
                Ok(_) => mismatches.push(format!("{id}: outcome differs from run_campaign")),
                Err(e) => mismatches.push(format!("{id}: {e}")),
            }
        }
    }
    let all_pairs = by_pair.len() == TENANTS * APPS.len();
    let checked = by_pair.values().map(Vec::len).sum::<usize>();
    let detail = if !all_pairs {
        format!(
            "only {} of {} (tenant, app) pairs completed",
            by_pair.len(),
            TENANTS * APPS.len()
        )
    } else if mismatches.is_empty() {
        format!(
            "{checked} served outcomes byte-identical to run_campaign over {} (tenant, app) pairs{}",
            by_pair.len(),
            if args.trace { ", served traced, references untraced" } else { "" }
        )
    } else {
        mismatches.join("; ")
    };
    report.check(
        "served_equals_library",
        mismatches.is_empty() && all_pairs,
        detail,
    );
    let mut quality = Quality::default();
    let mut quality_failures = Vec::new();
    for reference in &quality_refs {
        match reference {
            Ok(outcome) => quality.add(outcome, POPULATION),
            Err(e) => quality_failures.push(format!("quality campaign failed: {e}")),
        }
    }
    if !args.trace {
        let (ok, detail) = quality.validate();
        if quality_failures.is_empty() {
            report.check("outcomes_sane", ok, detail);
        } else {
            report.check("outcomes_sane", false, quality_failures.join("; "));
        }
    }

    let campaign_s: Vec<f64> = served.iter().filter_map(|s| s.campaign_s).collect();
    if !args.trace {
        let deadline_s = args.seconds as f64;
        // One scale for the whole run: the samples are taken while the
        // other client's campaign keeps a worker busy, so each one also
        // reflects what that campaign is doing, and only their median
        // follows the host.
        let scale = host.scale();
        let first_s: Vec<f64> = served
            .iter()
            .filter(|s| s.campaign_s.is_some())
            .filter_map(|s| s.first_result_s)
            .collect();
        report.metrics = vec![
            Metric::new("setup_s", "s", setup_s, SETUPS, "p50"),
            Metric::timing("campaign_s_p50", "s", &campaign_s, 0.5).scaled(scale),
            Metric::new(
                "campaigns_per_s",
                "1/s",
                stats::closed_loop_throughput(&requests, deadline_s).unwrap_or(0.0),
                campaign_s.len(),
                "closed loop: completed / time to last completion",
            )
            .scaled(1.0 / scale),
        ];
        report.metrics.extend(quality.metrics());
        report.metrics.push(Metric::new(
            "completed_frac",
            "ratio",
            stats::completed_frac(&requests).unwrap_or(0.0),
            requests.len(),
            "completed / attempted",
        ));
        report
            .metrics
            .push(Metric::new("peak_rss_mb", "MB", rss, 1, "VmHWM"));
        report
            .extra
            .push(Metric::timing("first_result_s_p50", "s", &first_s, 0.5).scaled(scale));
        report.host = Some(host);
        report.unscaled_campaign_s_p50 = stats::percentile(&campaign_s, 0.5).map(|s| s.value);
    } else {
        // Warm cache: each repeat visit of a pair against its cold first
        // visit, in completion order.
        let mut by_done: Vec<&Served> = served.iter().filter(|s| s.layer.is_some()).collect();
        by_done.sort_by(|a, b| {
            a.done_at_s
                .partial_cmp(&b.done_at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut cold: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for s in by_done {
            let sim_s = s.layer.as_ref().map_or(0.0, |l| l.sim_wall_s);
            match cold.get(&(s.tenant, s.app)) {
                Some(&c) => {
                    http_log.warm_cold_sim_s += c;
                    http_log.warm_spared_sim_s += (c - sim_s).max(0.0);
                }
                None => {
                    cold.insert((s.tenant, s.app), sim_s);
                }
            }
        }
        // The pretraining a tenant's campaigns repeat depends only on its
        // seed and the iteration budget: time it once per tenant.
        phase("timed pretraining calls".into(), true);
        let pretraining: Vec<Pretraining> = tenant_seeds
            .iter()
            .map(|seed| Pretraining::measure(ITERATIONS, *seed))
            .collect();
        let samples: Vec<LayerSample> = served
            .iter()
            .filter_map(|s| {
                let mut l = s.layer.clone()?;
                l.pretrain_s = pretraining[s.tenant].total_s();
                l.surrogate_fits = surrogate_fits as f64 / campaign_s.len().max(1) as f64;
                Some(l)
            })
            .collect();
        report.metrics = layers::metrics(&samples, &pretraining, &http_log);
    }
    report
}

/// `run_campaign` on the spec the daemon builds from each submission
/// body, spread over two threads.
fn reference_outcomes(bodies: &[String]) -> Vec<Result<CampaignOutcome, String>> {
    let run = |body: &String| -> Result<CampaignOutcome, String> {
        let value = parse(body).ok_or("unparsable submission")?;
        let (spec, strategy) = CampaignRequest::from_json(&value)?.to_spec()?;
        if strategy.is_some() {
            return Err("submission names a strategy".to_string());
        }
        run_campaign(&spec).map_err(|e| e.to_string())
    };
    let chunk = bodies.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .chunks(chunk)
            .map(|part| {
                (
                    part.len(),
                    s.spawn(move || part.iter().map(run).collect::<Vec<_>>()),
                )
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|(len, h)| {
                h.join().unwrap_or_else(|_| {
                    (0..len)
                        .map(|_| Err("reference run panicked".to_string()))
                        .collect()
                })
            })
            .collect()
    })
}
