//! Per-layer cost attribution (Darshan-style "who spent the time").
//!
//! A [`RunReport`] reduces a simulated run to one set of
//! totals; a [`Profile`] keeps the per-layer breakdown: how much *self time*
//! each layer of the simulated stack contributed, plus the bytes and
//! operation counts it handled. Self time is exclusive — the seconds a
//! request spent being serviced *by that layer's own mechanism* (shuffling
//! on the network for MPI-IO, streaming from OSTs for Lustre data, paying
//! per-RPC overhead for Lustre RPCs, …), never including the layers below.
//! The self times of all layers therefore sum to the run's total simulated
//! time, and the I/O-layer subset sums to `RunReport::io_time_s`.
//!
//! Profiles are phase-aware: [`Profile::absorb`] merges per-phase
//! contributions exactly like `RunReport::absorb`, and [`Profile::average`]
//! pools repeated runs with the same time-weighted semantics as
//! `RunReport::average`, so attribution survives multi-phase workloads and
//! the paper's 3-run averaging.

use crate::report::RunReport;
use serde_json::Value;

/// The layers of the simulated stack that can be charged time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Application compute phases (no I/O involvement).
    Compute,
    /// HDF5-like library: chunk-cache read-modify-write amplification.
    Hdf5,
    /// MPI-IO middleware: two-phase collective shuffle.
    Mpiio,
    /// Client network injection floor (irregular streams waste the wire).
    Network,
    /// Lustre OST data streaming.
    LustreData,
    /// Lustre per-request (RPC) service overhead.
    LustreRpc,
    /// Metadata server operations.
    Mds,
    /// Burst-buffer ingest (absorbed checkpoint writes).
    Burst,
    /// Cross-tenant interference: noisy-neighbor OST episodes and fabric
    /// contention (zero unless an interference model is attached).
    Interference,
}

impl Layer {
    /// All layers, in canonical (serialization and display) order.
    pub const ALL: [Layer; 9] = [
        Layer::Compute,
        Layer::Hdf5,
        Layer::Mpiio,
        Layer::Network,
        Layer::LustreData,
        Layer::LustreRpc,
        Layer::Mds,
        Layer::Burst,
        Layer::Interference,
    ];

    /// Layers whose self time is part of `RunReport::io_time_s`.
    pub const IO: [Layer; 7] = [
        Layer::Hdf5,
        Layer::Mpiio,
        Layer::Network,
        Layer::LustreData,
        Layer::LustreRpc,
        Layer::Burst,
        Layer::Interference,
    ];

    /// Stable string name (used in JSON, metrics labels and trace events).
    pub fn as_str(&self) -> &'static str {
        match self {
            Layer::Compute => "compute",
            Layer::Hdf5 => "hdf5",
            Layer::Mpiio => "mpiio",
            Layer::Network => "network",
            Layer::LustreData => "lustre.data",
            Layer::LustreRpc => "lustre.rpc",
            Layer::Mds => "mds",
            Layer::Burst => "burst",
            Layer::Interference => "interference",
        }
    }

    /// Inverse of [`Layer::as_str`].
    pub fn from_name(name: &str) -> Option<Layer> {
        Layer::ALL.iter().copied().find(|l| l.as_str() == name)
    }
}

/// Exclusive (self) cost charged to one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Self time, seconds: time spent in this layer's own mechanism.
    pub self_s: f64,
    /// Bytes this layer handled (its own accounting unit; layers see the
    /// same data, so bytes do *not* sum meaningfully across layers).
    pub bytes: f64,
    /// Operations this layer issued or serviced.
    pub ops: f64,
}

impl LayerStat {
    fn absorb(&mut self, other: &LayerStat) {
        self.self_s += other.self_s;
        self.bytes += other.bytes;
        self.ops += other.ops;
    }
}

/// Per-layer cost attribution for one (or many pooled) simulated runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    stats: [LayerStat; Layer::ALL.len()],
}

impl Profile {
    /// Empty profile (all layers zero).
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Charge `self_s` seconds, `bytes` and `ops` to `layer`.
    pub fn add(&mut self, layer: Layer, self_s: f64, bytes: f64, ops: f64) {
        let s = &mut self.stats[layer as usize];
        s.self_s += self_s;
        s.bytes += bytes;
        s.ops += ops;
    }

    /// This layer's accumulated stat.
    pub fn get(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    /// Iterate `(layer, stat)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Layer, LayerStat)> + '_ {
        Layer::ALL.iter().map(|&l| (l, self.stats[l as usize]))
    }

    /// Merge another profile into this one (per-phase or per-run pooling).
    pub fn absorb(&mut self, other: &Profile) {
        for l in Layer::ALL {
            self.stats[l as usize].absorb(&other.stats[l as usize]);
        }
    }

    /// Pool several runs' profiles with the same time-weighted semantics
    /// as [`RunReport::average`]: every field is summed, then divided by
    /// the run count. An empty slice yields the empty profile.
    pub fn average(profiles: &[Profile]) -> Profile {
        let n = profiles.len().max(1) as f64;
        let mut acc = Profile::new();
        for p in profiles {
            acc.absorb(p);
        }
        for s in &mut acc.stats {
            s.self_s /= n;
            s.bytes /= n;
            s.ops /= n;
        }
        acc
    }

    /// Scale the self time of the I/O layers *except* burst ingest by
    /// `factor` (the burst-buffer spill path: only the spill-over
    /// fraction of the PFS cost remains).
    pub(crate) fn scale_io_time(&mut self, factor: f64) {
        for l in Layer::IO {
            if l != Layer::Burst {
                self.stats[l as usize].self_s *= factor;
            }
        }
    }

    /// Scale the self time of every layer except compute by `factor`
    /// (the platform-volatility noise multiplier perturbs the whole I/O
    /// and metadata path).
    pub(crate) fn scale_noise(&mut self, factor: f64) {
        for l in Layer::ALL {
            if l != Layer::Compute {
                self.stats[l as usize].self_s *= factor;
            }
        }
    }

    /// Sum of all layers' self time: the total simulated time.
    pub fn total_time_s(&self) -> f64 {
        self.stats.iter().map(|s| s.self_s).sum()
    }

    /// Sum of the I/O layers' self time (matches `RunReport::io_time_s`).
    pub fn io_time_s(&self) -> f64 {
        Layer::IO
            .iter()
            .map(|&l| self.stats[l as usize].self_s)
            .sum()
    }

    /// Per-layer difference `self - earlier` (clamped at zero): the cost
    /// added since an earlier snapshot of an accumulating profile.
    pub fn delta_since(&self, earlier: &Profile) -> Profile {
        let mut out = Profile::new();
        for l in Layer::ALL {
            let a = self.stats[l as usize];
            let b = earlier.stats[l as usize];
            out.stats[l as usize] = LayerStat {
                self_s: (a.self_s - b.self_s).max(0.0),
                bytes: (a.bytes - b.bytes).max(0.0),
                ops: (a.ops - b.ops).max(0.0),
            };
        }
        out
    }

    /// Serialize as a stable JSON object (layers in canonical order).
    pub fn to_json(&self) -> String {
        let layers: Vec<(String, Value)> = self
            .iter()
            .map(|(l, s)| {
                (
                    l.as_str().to_string(),
                    Value::Object(vec![
                        ("self_s".to_string(), Value::Float(s.self_s)),
                        ("bytes".to_string(), Value::Float(s.bytes)),
                        ("ops".to_string(), Value::Float(s.ops)),
                    ]),
                )
            })
            .collect();
        let root = Value::Object(vec![("layers".to_string(), Value::Object(layers))]);
        serde_json::to_string_pretty(&root).expect("profile serializes")
    }

    /// Parse a profile written by [`Profile::to_json`]. Unknown layers are
    /// ignored and missing layers stay zero, so baselines survive layer
    /// additions.
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        let layers = match v.get("layers") {
            Some(Value::Object(pairs)) => pairs,
            _ => return Err("missing `layers` object".to_string()),
        };
        let mut out = Profile::new();
        for (name, stat) in layers {
            let Some(layer) = Layer::from_name(name) else {
                continue;
            };
            let f = |key: &str| stat.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
            out.stats[layer as usize] = LayerStat {
                self_s: f("self_s"),
                bytes: f("bytes"),
                ops: f("ops"),
            };
        }
        Ok(out)
    }

    /// Render the attribution table: one row per layer with self time,
    /// share of total, bytes and ops.
    pub fn render_table(&self) -> String {
        let total = self.total_time_s();
        let mut out = String::from(
            "layer         self s   % total        MiB          ops\n\
             ------------+--------+--------+-----------+------------\n",
        );
        const MIB: f64 = 1024.0 * 1024.0;
        for (l, s) in self.iter() {
            let pct = if total > 0.0 {
                100.0 * s.self_s / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<12} | {:>6.2} | {:>5.1}% | {:>9.1} | {:>10.0}\n",
                l.as_str(),
                s.self_s,
                pct,
                s.bytes / MIB,
                s.ops,
            ));
        }
        out.push_str(&format!(
            "total {:>.2} s (io {:>.2} s)\n",
            total,
            self.io_time_s()
        ));
        out
    }

    /// Flamegraph-style self/total rows in the stack's call hierarchy:
    /// each row carries its nesting depth, the layer's exclusive self
    /// time and the inclusive total of its subtree.
    pub fn tree(&self) -> Vec<TreeRow> {
        let s = |l: Layer| self.stats[l as usize].self_s;
        let lustre = s(Layer::LustreData) + s(Layer::LustreRpc);
        let mpiio = s(Layer::Mpiio) + s(Layer::Network) + lustre;
        let hdf5 = s(Layer::Hdf5) + mpiio;
        let io = s(Layer::Burst) + hdf5 + s(Layer::Interference);
        let run = s(Layer::Compute) + io + s(Layer::Mds);
        let row = |depth, name: &str, self_s, total_s| TreeRow {
            depth,
            name: name.to_string(),
            self_s,
            total_s,
        };
        vec![
            row(0, "run", 0.0, run),
            row(1, "compute", s(Layer::Compute), s(Layer::Compute)),
            row(1, "io", 0.0, io),
            row(2, "burst", s(Layer::Burst), s(Layer::Burst)),
            row(2, "hdf5", s(Layer::Hdf5), hdf5),
            row(3, "mpiio", s(Layer::Mpiio), mpiio),
            row(4, "network", s(Layer::Network), s(Layer::Network)),
            row(4, "lustre", 0.0, lustre),
            row(5, "lustre.data", s(Layer::LustreData), s(Layer::LustreData)),
            row(5, "lustre.rpc", s(Layer::LustreRpc), s(Layer::LustreRpc)),
            row(
                2,
                "interference",
                s(Layer::Interference),
                s(Layer::Interference),
            ),
            row(1, "mds", s(Layer::Mds), s(Layer::Mds)),
        ]
    }

    /// Render [`Profile::tree`] as indented text.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for r in self.tree() {
            out.push_str(&format!(
                "{:indent$}{:<width$} total {:>8.3} s  self {:>8.3} s\n",
                "",
                r.name,
                r.total_s,
                r.self_s,
                indent = r.depth * 2,
                width = 14usize.saturating_sub(r.depth * 2) + 8,
            ));
        }
        out
    }

    /// Check the profile against the report it was produced with: layer
    /// self times must reconstruct the report's timings. Returns the
    /// worst relative error across total/io/meta/compute.
    pub fn attribution_error(&self, report: &RunReport) -> f64 {
        let rel = |have: f64, want: f64| {
            if want.abs() > 1e-12 {
                (have - want).abs() / want.abs()
            } else {
                (have - want).abs()
            }
        };
        rel(self.total_time_s(), report.elapsed_s)
            .max(rel(self.io_time_s(), report.io_time_s))
            .max(rel(self.get(Layer::Mds).self_s, report.meta_time_s))
            .max(rel(self.get(Layer::Compute).self_s, report.compute_time_s))
    }
}

/// One row of the flamegraph-style tree (see [`Profile::tree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRow {
    /// Nesting depth (0 = the run itself).
    pub depth: usize,
    /// Node name — a [`Layer`] name or a synthetic grouping node
    /// (`run`, `io`, `lustre`).
    pub name: String,
    /// Exclusive time of the node, seconds (0 for grouping nodes).
    pub self_s: f64,
    /// Inclusive time of the node's subtree, seconds.
    pub total_s: f64,
}

/// Per-layer comparison of two profiles (see [`compare_profiles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDelta {
    /// The layer compared.
    pub layer: Layer,
    /// Baseline self time, seconds.
    pub base_s: f64,
    /// Current self time, seconds.
    pub current_s: f64,
    /// `current / base` (1.0 when the baseline is zero and current is too).
    pub ratio: f64,
    /// Whether this layer regressed beyond the tolerance.
    pub regressed: bool,
}

impl LayerDelta {
    /// Signed percentage change, e.g. `+23.4` for a 1.234× slowdown.
    pub fn pct_change(&self) -> f64 {
        (self.ratio - 1.0) * 100.0
    }
}

/// Compare `current` against `base` layer by layer with a relative noise
/// `tolerance` (0.15 = a layer may be up to 15% slower before it counts
/// as a regression). Layers contributing less than 0.1% of the baseline's
/// total time are ignored — their times are dominated by noise. Results
/// come back sorted worst-regression-first.
pub fn compare_profiles(base: &Profile, current: &Profile, tolerance: f64) -> Vec<LayerDelta> {
    let noise_floor = base.total_time_s() * 1e-3;
    let mut out: Vec<LayerDelta> = Layer::ALL
        .iter()
        .filter_map(|&layer| {
            let b = base.get(layer).self_s;
            let c = current.get(layer).self_s;
            if b <= noise_floor && c <= noise_floor {
                return None;
            }
            let ratio = if b > 0.0 {
                c / b
            } else if c > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            Some(LayerDelta {
                layer,
                base_s: b,
                current_s: c,
                ratio,
                regressed: b > noise_floor && ratio > 1.0 + tolerance,
            })
        })
        .collect();
    out.sort_by(|a, b| b.ratio.total_cmp(&a.ratio).then(a.layer.cmp(&b.layer)));
    out
}

/// Render a [`compare_profiles`] result as a diff table.
pub fn render_diff(deltas: &[LayerDelta]) -> String {
    let mut out = String::from(
        "layer          base s    cur s   change\n\
         ------------+--------+--------+---------\n",
    );
    for d in deltas {
        out.push_str(&format!(
            "{:<12} | {:>6.3} | {:>6.3} | {:>+7.1}%{}\n",
            d.layer.as_str(),
            d.base_s,
            d.current_s,
            d.pct_change(),
            if d.regressed { "  REGRESSED" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::new();
        p.add(Layer::Compute, 5.0, 0.0, 0.0);
        p.add(Layer::Hdf5, 0.5, 1e9, 100.0);
        p.add(Layer::Mpiio, 1.0, 8e8, 50.0);
        p.add(Layer::Network, 0.25, 1e9, 0.0);
        p.add(Layer::LustreData, 2.0, 1e9, 0.0);
        p.add(Layer::LustreRpc, 0.25, 0.0, 40.0);
        p.add(Layer::Mds, 0.125, 0.0, 16.0);
        p
    }

    #[test]
    fn totals_sum_layer_self_times() {
        let p = sample();
        assert!((p.total_time_s() - 9.125).abs() < 1e-12);
        assert!((p.io_time_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_and_average_pool_fields() {
        let mut a = sample();
        a.absorb(&sample());
        assert!((a.total_time_s() - 18.25).abs() < 1e-12);
        assert_eq!(a.get(Layer::Hdf5).ops, 200.0);

        let avg = Profile::average(&[sample(), sample(), sample()]);
        assert!((avg.total_time_s() - 9.125).abs() < 1e-12);
        assert_eq!(avg.get(Layer::Mpiio).bytes, 8e8);

        assert_eq!(Profile::average(&[]), Profile::new());
    }

    #[test]
    fn delta_since_subtracts_and_clamps() {
        let mut later = sample();
        later.add(Layer::LustreData, 1.0, 5e8, 10.0);
        let d = later.delta_since(&sample());
        assert!((d.get(Layer::LustreData).self_s - 1.0).abs() < 1e-12);
        assert_eq!(d.get(Layer::Compute).self_s, 0.0);
        // Clamped: an earlier profile with more time yields zero, not
        // negative attribution.
        let d2 = sample().delta_since(&later);
        assert_eq!(d2.get(Layer::LustreData).self_s, 0.0);
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let text = p.to_json();
        let back = Profile::from_json(&text).unwrap();
        assert_eq!(back, p);
        // Stability: serializing again produces identical bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn from_json_tolerates_unknown_and_missing_layers() {
        let text = r#"{"layers":{"hdf5":{"self_s":1.5,"bytes":10.0,"ops":2.0},"warp_drive":{"self_s":9.0}}}"#;
        let p = Profile::from_json(text).unwrap();
        assert_eq!(p.get(Layer::Hdf5).self_s, 1.5);
        assert_eq!(p.get(Layer::Mds), LayerStat::default());
        assert!(Profile::from_json("{}").is_err());
    }

    #[test]
    fn tree_totals_are_consistent() {
        let p = sample();
        let rows = p.tree();
        let run = &rows[0];
        assert_eq!(run.name, "run");
        assert!((run.total_s - p.total_time_s()).abs() < 1e-12);
        let io = rows.iter().find(|r| r.name == "io").unwrap();
        assert!((io.total_s - p.io_time_s()).abs() < 1e-12);
        // Every parent's total is >= each child's total.
        let hdf5 = rows.iter().find(|r| r.name == "hdf5").unwrap();
        let mpiio = rows.iter().find(|r| r.name == "mpiio").unwrap();
        assert!(hdf5.total_s >= mpiio.total_s);
        assert!((hdf5.total_s - hdf5.self_s - mpiio.total_s).abs() < 1e-12);
    }

    #[test]
    fn render_table_and_tree_mention_all_layers() {
        let table = sample().render_table();
        let tree = sample().render_tree();
        for l in Layer::ALL {
            assert!(table.contains(l.as_str()), "table missing {}", l.as_str());
        }
        assert!(tree.contains("run"));
        assert!(tree.contains("lustre.data"));
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let base = sample();
        let mut cur = sample();
        cur.add(Layer::LustreData, 2.0, 0.0, 0.0); // 2x slowdown
        let deltas = compare_profiles(&base, &cur, 0.15);
        let worst = &deltas[0];
        assert_eq!(worst.layer, Layer::LustreData);
        assert!(worst.regressed);
        assert!((worst.ratio - 2.0).abs() < 1e-12);
        assert!((worst.pct_change() - 100.0).abs() < 1e-9);
        // Everything else is within tolerance.
        assert!(deltas[1..].iter().all(|d| !d.regressed));
    }

    #[test]
    fn compare_within_tolerance_is_clean() {
        let base = sample();
        let mut cur = sample();
        cur.add(Layer::Mpiio, 0.05, 0.0, 0.0); // +5% on a 1.0 s layer
        assert!(compare_profiles(&base, &cur, 0.15)
            .iter()
            .all(|d| !d.regressed));
    }

    #[test]
    fn compare_ignores_noise_floor_layers() {
        let mut base = sample();
        base.add(Layer::Burst, 1e-6, 0.0, 0.0);
        let mut cur = sample();
        cur.add(Layer::Burst, 5e-6, 0.0, 0.0); // 5x, but below the floor
        let deltas = compare_profiles(&base, &cur, 0.15);
        assert!(deltas.iter().all(|d| d.layer != Layer::Burst));
    }

    #[test]
    fn new_layer_appearing_is_a_regression() {
        let base = sample();
        let mut cur = sample();
        cur.add(Layer::Burst, 1.0, 0.0, 0.0);
        let deltas = compare_profiles(&base, &cur, 0.15);
        let burst = deltas.iter().find(|d| d.layer == Layer::Burst).unwrap();
        assert!(burst.ratio.is_infinite());
        // A layer with zero baseline cannot "regress" relative to it, but
        // it must surface in the diff for a human to judge.
        assert!(!burst.regressed);
        assert!(render_diff(&deltas).contains("burst"));
    }
}
