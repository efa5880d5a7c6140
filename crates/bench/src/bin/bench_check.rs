//! Schema check over the `BENCH_*.json` perf artifacts — the CI gate
//! that keeps the persisted trajectory honest.
//!
//! For every artifact present (or explicitly listed on the command
//! line) this verifies:
//!
//! - the expected top-level keys exist;
//! - every knee/summary field that feeds a plot is a finite number (a
//!   `null` from an empty percentile would silently flatline a curve);
//! - the throughput accounting invariant: `throughput_qps <=
//!   offered_qps` on every sweep point — goodput over the arrival
//!   window can never exceed the offered load, the exact identity whose
//!   violation motivated the serving-report accounting fix;
//! - the channel sweep's knee multiples are present and the 2-channel
//!   plateau moved by at least 1.7× the single-channel one;
//! - the fusion sweep's knee multiple: the fused plateau sits at ≥ 1.3×
//!   the unfused one on the saturated same-column stream;
//! - the engine artifact's deterministic invariants: fused service rate
//!   at least the unfused rate on the contention burst, and batched
//!   admission processing no more events than one-at-a-time draining;
//!   its wall-clock fields are machine-dependent, so the one wall-clock
//!   gate is a ratio within the run: mixed-open must serve at least
//!   [`MIN_MIXED_OVER_UNFUSED`] of select-burst-unfused's queries/sec;
//! - the join artifact's acceptance gates: the Q3/Q13-shaped mix served
//!   at least one semi-join and one keyed group-by with nothing lost,
//!   the skew-aware split sustained ≥ 1.3× the naive-hash service rate
//!   on the Zipf(1.0) key burst, and the split run's group rows were
//!   byte-identical to naive hashing;
//! - the cluster artifact's acceptance gates: the saturation knee scales
//!   ≥ 1.6× from one node to two under replica-local routing, the
//!   node-outage run completed every admitted query with results
//!   identical to the solo run, the rf=1 pull run billed exactly one
//!   page-store transfer per frontend pull, and a 4-node grid's host time
//!   per query at 16× the queries stayed within [`MAX_SCALE_RATIO`] of
//!   its time per query at 1× (a ratio within one run, so it holds on
//!   any machine);
//! - the **baseline regression gate**: each artifact may carry a
//!   `baseline` object with per-mode (`full` / `smoke`) maps of dotted
//!   field paths to the values last accepted into the trajectory. Every
//!   gated field (knee multiples and service rates — all deterministic
//!   simulated quantities, never wall-clock) must sit within 15% of the
//!   value accepted for the same mode; a drop below `0.85 × baseline`
//!   fails CI. The modes are separate because CI re-runs the benches
//!   with `--smoke` before checking — a full-run knee would be compared
//!   against a smoke-run knee otherwise. After an intentional change,
//!   re-accept with `bench_check --accept [FILE...]`, which rewrites the
//!   artifacts with the current values as the new baseline for the
//!   artifact's current mode — the diff in the committed `BENCH_*.json`
//!   is the reviewable perf trajectory. Benches carry the accepted
//!   baseline forward when they rewrite an artifact, so only `--accept`
//!   ever moves it.
//!
//! Usage: `bench_check [--accept] [FILE...]` — defaults to
//! `BENCH_serving.json`, `BENCH_scaling.json`, `BENCH_engine.json`,
//! `BENCH_cluster.json` and `BENCH_join.json` in the working directory,
//! skipping missing
//! defaults but failing on missing explicit arguments. Exits non-zero
//! with one line per violation.

use jafar_bench::json::Json;

/// Per-bench gated fields for the baseline regression gate: dotted paths
/// to higher-is-better, deterministic (simulated-time) numbers.
fn gated_fields(bench: &str) -> &'static [&'static str] {
    match bench {
        "fig_serving" => &[
            "knee.heavy_service_rate_qps",
            "knee_2ch_multiple",
            "knee_4ch_multiple",
            "fused_knee_multiple",
        ],
        "fig_engine" => &["contention.fused_multiple"],
        "fig_cluster" => &["knee_2node_multiple", "knee_4node_multiple"],
        "fig_join" => &["skew.split_multiple", "mix.service_rate_qps"],
        _ => &[],
    }
}

/// Resolves a dotted path (`knee.heavy_service_rate_qps`) against a doc.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    Some(cur)
}

/// Which baseline sub-map this artifact gates against: smoke runs carry
/// different workload sizes (and so different knees) than full runs.
fn baseline_mode(doc: &Json) -> &'static str {
    if doc.get("smoke") == Some(&Json::Bool(true)) {
        "smoke"
    } else {
        "full"
    }
}

/// Accumulates violations instead of bailing at the first, so one CI
/// run reports everything wrong with an artifact.
struct Check {
    file: String,
    errors: Vec<String>,
}

impl Check {
    fn new(file: &str) -> Check {
        Check {
            file: file.to_string(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.errors.push(format!("{}: {msg}", self.file));
    }

    fn require<'a>(&mut self, v: &'a Json, key: &str) -> Option<&'a Json> {
        let found = v.get(key);
        if found.is_none() {
            self.fail(format!("missing key `{key}`"));
        }
        found
    }

    fn finite(&mut self, v: &Json, key: &str) -> Option<f64> {
        match self.require(v, key).and_then(Json::num) {
            Some(n) if n.is_finite() => Some(n),
            Some(n) => {
                self.fail(format!("`{key}` is not finite: {n}"));
                None
            }
            None => {
                self.fail(format!("`{key}` is not a finite number"));
                None
            }
        }
    }

    /// The baseline regression gate: every gated field within 15% of
    /// the value last accepted via `--accept` for the artifact's mode
    /// (`full` vs `smoke` — the two run very different workload sizes).
    /// A missing baseline for the mode is reported as a note, not a
    /// failure — the gate arms itself the first time one is accepted.
    fn baseline_gate(&mut self, doc: &Json, gated: &[&str]) {
        if gated.is_empty() {
            return;
        }
        let mode = baseline_mode(doc);
        let Some(base) = doc.get("baseline").and_then(|b| b.get(mode)) else {
            println!(
                "# {}: no accepted `{mode}` baseline (seed one with `bench_check --accept {}`)",
                self.file, self.file
            );
            return;
        };
        for &path in gated {
            let Some(accepted) = base.get(path).and_then(Json::num) else {
                self.fail(format!("baseline is missing gated field `{path}`"));
                continue;
            };
            let Some(current) = lookup(doc, path).and_then(Json::num) else {
                self.fail(format!("gated field `{path}` absent from the artifact"));
                continue;
            };
            if current < accepted * 0.85 {
                self.fail(format!(
                    "`{path}` regressed > 15%: {current} vs accepted baseline {accepted} \
                     (re-accept an intentional change with `bench_check --accept`)"
                ));
            }
        }
    }

    /// `throughput_qps <= offered_qps` on one sweep point, with a hair
    /// of float slack.
    fn throughput_invariant(&mut self, point: &Json, label: &str) {
        let offered = self.finite(point, "offered_qps");
        let tput = self.finite(point, "throughput_qps");
        if let (Some(offered), Some(tput)) = (offered, tput) {
            if tput > offered * 1.0001 {
                self.fail(format!(
                    "{label}: throughput {tput} q/s exceeds offered {offered} q/s"
                ));
            }
        }
    }
}

fn check_serving(c: &mut Check, doc: &Json) {
    for key in ["bench", "smoke", "queries", "rows", "fault_run"] {
        c.require(doc, key);
    }
    if let Some(points) = c.require(doc, "load_sweep").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`load_sweep` is empty".into());
        }
        for (i, p) in points.iter().enumerate() {
            c.throughput_invariant(p, &format!("load_sweep[{i}]"));
            for key in ["load", "service_rate_qps", "p50_ms", "p99_ms"] {
                c.finite(p, key);
            }
        }
    }
    if let Some(knee) = c.require(doc, "knee") {
        for key in [
            "p99_light_ms",
            "p99_heavy_ms",
            "p99_ratio",
            "heavy_offered_qps",
            "heavy_throughput_qps",
            "heavy_service_rate_qps",
        ] {
            c.finite(knee, key);
        }
    }
    if let Some(points) = c.require(doc, "channel_sweep").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`channel_sweep` is empty".into());
        }
        for (i, p) in points.iter().enumerate() {
            c.throughput_invariant(p, &format!("channel_sweep[{i}]"));
            for key in ["channels", "units", "service_rate_qps"] {
                c.finite(p, key);
            }
        }
    }
    if let Some(mult) = c.finite(doc, "knee_2ch_multiple") {
        if mult < 1.7 {
            c.fail(format!(
                "2-channel knee moved only {mult}x the single-channel plateau (< 1.7x)"
            ));
        }
    }
    c.finite(doc, "knee_4ch_multiple");
    if let Some(points) = c.require(doc, "fusion_sweep").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`fusion_sweep` is empty".into());
        }
        for (i, p) in points.iter().enumerate() {
            c.throughput_invariant(p, &format!("fusion_sweep[{i}]"));
            for key in ["fuse_window", "service_rate_qps"] {
                c.finite(p, key);
            }
        }
    }
    if let Some(mult) = c.finite(doc, "fused_knee_multiple") {
        if mult < 1.3 {
            c.fail(format!(
                "fused knee moved only {mult}x the unfused plateau (< 1.3x)"
            ));
        }
    }
}

/// Floor on fig_engine's wall-clock mixed-open ÷ select-burst-unfused
/// queries/sec. Both scenarios serve the same query count on the same
/// machine in one run, so the ratio cancels host speed; a per-job fixed
/// cost on the operator paths only mixed-open takes shows up here.
const MIN_MIXED_OVER_UNFUSED: f64 = 0.3;

fn check_engine(c: &mut Check, doc: &Json) {
    for key in ["bench", "smoke", "queries", "rows", "reps"] {
        c.require(doc, key);
    }
    if let Some(points) = c.require(doc, "scenarios").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`scenarios` is empty".into());
        }
        let qps = |name: &str| {
            points
                .iter()
                .find(|p| p.get("name").and_then(Json::str) == Some(name))
                .and_then(|p| p.get("queries_per_sec"))
                .and_then(Json::num)
        };
        match (qps("mixed-open"), qps("select-burst-unfused")) {
            (Some(mixed), Some(unfused)) if mixed / unfused < MIN_MIXED_OVER_UNFUSED => {
                c.fail(format!(
                    "mixed-open serves {mixed} q/s, {:.3}x select-burst-unfused's {unfused} q/s \
                     (floor {MIN_MIXED_OVER_UNFUSED}x)",
                    mixed / unfused
                ));
            }
            (Some(_), Some(_)) => {}
            _ => c.fail(
                "`scenarios` lacks mixed-open or select-burst-unfused queries_per_sec".into(),
            ),
        }
        for (i, p) in points.iter().enumerate() {
            let name = p
                .get("name")
                .and_then(Json::str)
                .map_or_else(|| format!("scenarios[{i}]"), str::to_string);
            for key in [
                "queries",
                "completed",
                "shed",
                "events",
                "sim_makespan_ms",
                "sim_service_rate_qps",
                "wall_ms",
                "events_per_sec",
                "queries_per_sec",
            ] {
                if let Some(n) = c.finite(p, key) {
                    // Wall-clock rates vary by machine but can never be
                    // zero or negative on a run that processed events.
                    if matches!(key, "wall_ms" | "events_per_sec" | "queries_per_sec") && n <= 0.0 {
                        c.fail(format!("{name}: `{key}` is not positive: {n}"));
                    }
                }
            }
        }
    }
    if let Some(cont) = c.require(doc, "contention") {
        let window = c.finite(cont, "fuse_window");
        if window.is_some_and(|w| w < 2.0) {
            c.fail("contention run fused with a window < 2".into());
        }
        let unfused = c.finite(cont, "unfused_qps");
        let fused = c.finite(cont, "fused_qps");
        if let (Some(unfused), Some(fused)) = (unfused, fused) {
            if fused < unfused {
                c.fail(format!(
                    "fused service rate {fused} q/s fell below unfused {unfused} q/s"
                ));
            }
        }
        c.finite(cont, "fused_multiple");
    }
    if let Some(batching) = c.require(doc, "batching") {
        let batched = c.finite(batching, "batched_events");
        let unbatched = c.finite(batching, "unbatched_events");
        if let (Some(batched), Some(unbatched)) = (batched, unbatched) {
            if batched > unbatched {
                c.fail(format!(
                    "batched admission processed {batched} events vs {unbatched} one-at-a-time"
                ));
            }
        }
    }
}

fn check_scaling(c: &mut Check, doc: &Json) {
    for key in ["bench", "smoke", "rows"] {
        c.require(doc, key);
    }
    c.finite(doc, "cpu_baseline_ms");
    if let Some(points) = c.require(doc, "scaling").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`scaling` is empty".into());
        }
        for p in points {
            for key in ["ranks", "time_ms", "speedup_vs_1", "speedup_vs_cpu"] {
                c.finite(p, key);
            }
        }
    }
    if let Some(fault) = c.require(doc, "fault_run") {
        for key in [
            "ranks",
            "end_ms",
            "rank0_cpu_pages",
            "stall_passes",
            "stalled_bursts",
        ] {
            c.finite(fault, key);
        }
    }
}

/// The most host time per query a grid serve of 16× the queries may
/// cost, as a multiple of the smaller serve's: a grid serve costs linear
/// host time in its query count.
const MAX_SCALE_RATIO: f64 = 1.5;

fn check_cluster(c: &mut Check, doc: &Json) {
    for key in ["bench", "smoke", "queries", "rows"] {
        c.require(doc, key);
    }
    if let Some(points) = c.require(doc, "node_sweep").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`node_sweep` is empty".into());
        }
        for p in points {
            for key in [
                "nodes",
                "replication",
                "service_rate_qps",
                "p50_ms",
                "p99_ms",
                "completed",
                "shed",
                "net_bytes",
                "net_messages",
            ] {
                c.finite(p, key);
            }
        }
    }
    if let Some(mult) = c.finite(doc, "knee_2node_multiple") {
        if mult < 1.6 {
            c.fail(format!(
                "2-node knee moved only {mult}x the single node (< 1.6x) under replica-local routing"
            ));
        }
    }
    c.finite(doc, "knee_4node_multiple");
    if let Some(points) = c.require(doc, "route_sweep").and_then(Json::arr) {
        if points.is_empty() {
            c.fail("`route_sweep` is empty".into());
        }
        for (i, p) in points.iter().enumerate() {
            if p.get("route").and_then(Json::str).is_none() {
                c.fail(format!("route_sweep[{i}]: missing `route` name"));
            }
            for key in [
                "service_rate_qps",
                "remote_ndp",
                "remote_cpu",
                "local_pull",
                "shed",
            ] {
                c.finite(p, key);
            }
        }
    }
    if let Some(outage) = c.require(doc, "outage") {
        let queries = c.finite(outage, "queries");
        let completed = c.finite(outage, "completed");
        let shed = c.finite(outage, "shed");
        if let (Some(q), Some(done), Some(shed)) = (queries, completed, shed) {
            if done + shed < q {
                c.fail(format!(
                    "outage run lost queries: {done} completed + {shed} shed of {q}"
                ));
            }
        }
        c.finite(outage, "remote_cpu");
        if outage.get("identity_vs_solo") != Some(&Json::Bool(true)) {
            c.fail("outage run's results were not byte-identical to the solo run".into());
        }
    }
    if let Some(pull) = c.require(doc, "pull") {
        let pulls = c.finite(pull, "pulls");
        let messages = c.finite(pull, "store_messages");
        if let (Some(pulls), Some(messages)) = (pulls, messages) {
            if pulls >= 1.0 && messages != pulls {
                c.fail(format!(
                    "page-store ledger billed {messages} transfers for {pulls} pulls"
                ));
            }
        }
        c.finite(pull, "store_bytes");
        c.finite(pull, "completed");
    }
    if let Some(scale) = c.require(doc, "scale") {
        for key in [
            "nodes",
            "rows",
            "reps",
            "small_queries",
            "large_queries",
            "small_us_per_query",
            "large_us_per_query",
        ] {
            c.finite(scale, key);
        }
        if let Some(ratio) = c.finite(scale, "ratio") {
            if ratio > MAX_SCALE_RATIO {
                c.fail(format!(
                    "a grid serve of 16x the queries cost {ratio}x the host time per query \
                     (> {MAX_SCALE_RATIO}x)"
                ));
            }
        }
    }
}

fn check_join(c: &mut Check, doc: &Json) {
    for key in [
        "bench",
        "smoke",
        "queries",
        "rows",
        "key_domain",
        "zipf_theta",
    ] {
        c.require(doc, key);
    }
    if let Some(mix) = c.require(doc, "mix") {
        for key in [
            "queries",
            "semi_joins",
            "group_bys",
            "completed",
            "shed",
            "service_rate_qps",
            "p50_ms",
            "p99_ms",
        ] {
            c.finite(mix, key);
        }
        let queries = c.finite(mix, "queries");
        let completed = c.finite(mix, "completed");
        let shed = c.finite(mix, "shed");
        if let (Some(q), Some(done), Some(shed)) = (queries, completed, shed) {
            if done + shed < q {
                c.fail(format!(
                    "mix lost queries: {done} completed + {shed} shed of {q}"
                ));
            }
        }
        for key in ["semi_joins", "group_bys"] {
            if c.finite(mix, key).is_some_and(|n| n < 1.0) {
                c.fail(format!("mix served no `{key}` — not a Q3/Q13-shaped mix"));
            }
        }
    }
    if let Some(skew) = c.require(doc, "skew") {
        for key in [
            "queries",
            "naive_qps",
            "split_qps",
            "naive_makespan_ms",
            "split_makespan_ms",
        ] {
            c.finite(skew, key);
        }
        if let Some(mult) = c.finite(skew, "split_multiple") {
            if mult < 1.3 {
                c.fail(format!(
                    "skew-aware split sustained only {mult}x the naive-hash service \
                     rate on the Zipf(1.0) burst (< 1.3x)"
                ));
            }
        }
        if skew.get("identity") != Some(&Json::Bool(true)) {
            c.fail("skew-split group rows were not byte-identical to naive hash".into());
        }
    }
}

fn main() {
    let accept = std::env::args().any(|a| a == "--accept");
    let explicit: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--accept")
        .collect();
    let defaults = [
        "BENCH_serving.json",
        "BENCH_scaling.json",
        "BENCH_engine.json",
        "BENCH_cluster.json",
        "BENCH_join.json",
    ];
    let files: Vec<(String, bool)> = if explicit.is_empty() {
        defaults.iter().map(|f| (f.to_string(), false)).collect()
    } else {
        explicit.into_iter().map(|f| (f, true)).collect()
    };

    let mut errors: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for (file, required) in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                if *required {
                    errors.push(format!("{file}: unreadable: {e}"));
                } else {
                    println!("# {file}: absent, skipped");
                }
                continue;
            }
        };
        let mut c = Check::new(file);
        match Json::parse(&text) {
            Err(e) => c.fail(format!("invalid JSON: {e}")),
            Ok(mut doc) => {
                let tag = doc
                    .get("bench")
                    .and_then(Json::str)
                    .map(str::to_string)
                    .unwrap_or_default();
                match tag.as_str() {
                    "fig_serving" => check_serving(&mut c, &doc),
                    "fig_scaling" => check_scaling(&mut c, &doc),
                    "fig_engine" => check_engine(&mut c, &doc),
                    "fig_cluster" => check_cluster(&mut c, &doc),
                    "fig_join" => check_join(&mut c, &doc),
                    other => c.fail(format!("unknown `bench` tag: {other:?}")),
                }
                let gated = gated_fields(&tag);
                if accept {
                    // Re-accept: the current gated values become the
                    // committed baseline for this artifact's mode
                    // (schema violations still fail — a broken artifact
                    // cannot become the trajectory).
                    if !gated.is_empty() && c.errors.is_empty() {
                        let fields: Vec<(String, Json)> = gated
                            .iter()
                            .filter_map(|&path| {
                                lookup(&doc, path)
                                    .and_then(Json::num)
                                    .map(|n| (path.to_string(), Json::Num(n)))
                            })
                            .collect();
                        let mode = baseline_mode(&doc);
                        let mut baseline = doc
                            .get("baseline")
                            .filter(|b| matches!(b, Json::Obj(_)))
                            .cloned()
                            .unwrap_or(Json::Obj(Vec::new()));
                        baseline.set(mode, Json::Obj(fields));
                        doc.set("baseline", baseline);
                        match std::fs::write(file, doc.render()) {
                            Ok(()) => println!("# {file}: `{mode}` baseline accepted"),
                            Err(e) => c.fail(format!("cannot rewrite: {e}")),
                        }
                    }
                } else {
                    c.baseline_gate(&doc, gated);
                }
            }
        }
        checked += 1;
        if c.errors.is_empty() {
            println!("# {file}: ok");
        }
        errors.extend(c.errors);
    }

    if checked == 0 && errors.is_empty() {
        errors.push("no BENCH_*.json artifacts found to check".into());
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("bench_check: {e}");
        }
        std::process::exit(1);
    }
    println!("# bench_check: {checked} artifact(s) pass");
}
