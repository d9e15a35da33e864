//! The simulator: executes a workload under a configuration.

use crate::burst::{BurstBufferSpec, BurstBufferState};
use crate::cluster::ClusterSpec;
use crate::fault::{FaultKind, FaultPlan, InjectedFault, SimFault};
use crate::hdf5;
use crate::interference::InterferenceModel;
use crate::lustre::LustreSpec;
use crate::mpiio;
use crate::noise::{fingerprint, NoiseModel};
use crate::profile::{Layer, Profile};
use crate::report::RunReport;
use crate::request::{IoKind, Phase};
use tunio_params::StackConfig;

/// Simulated I/O stack: cluster + file system + noise.
///
/// `run` evaluates a workload under a [`StackConfig`] and returns a
/// [`RunReport`]. `run_averaged` mirrors the paper's methodology of
/// averaging three runs per configuration.
///
/// ```
/// use tunio_iosim::{Phase, Simulator};
/// use tunio_params::{ParameterSpace, StackConfig};
/// let sim = Simulator::cori_4node(1);
/// let space = ParameterSpace::tunio_default();
/// let report = sim.run(&[Phase::compute(5.0)], &StackConfig::defaults(&space), 0);
/// assert_eq!(report.elapsed_s, 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Compute-side machine description.
    pub cluster: ClusterSpec,
    /// Storage-side machine description.
    pub fs: LustreSpec,
    /// Deterministic volatility model.
    pub noise: NoiseModel,
    /// Optional node-local burst-buffer tier absorbing writes.
    pub burst: Option<BurstBufferSpec>,
    /// Optional seeded fault-injection schedule. Only the fallible
    /// `try_run*` entry points consult it; the infallible `run*` methods
    /// stay fault-free regardless.
    pub fault: Option<FaultPlan>,
    /// Optional heteroscedastic interference model (noisy-neighbor OST
    /// episodes + fabric contention on a virtual timeline). `None` leaves
    /// every run bitwise identical to the interference-free simulator.
    pub interference: Option<InterferenceModel>,
}

impl Simulator {
    /// Simulator for the paper's 4-node component-evaluation scale.
    pub fn cori_4node(seed: u64) -> Self {
        Simulator {
            cluster: ClusterSpec::cori_4node(),
            fs: LustreSpec::cori_scratch(),
            noise: NoiseModel::new(seed),
            burst: None,
            fault: None,
            interference: None,
        }
    }

    /// Simulator for the paper's 500-node end-to-end scale.
    pub fn cori_500node(seed: u64) -> Self {
        Simulator {
            cluster: ClusterSpec::cori_500node(),
            fs: LustreSpec::cori_scratch(),
            noise: NoiseModel::new(seed),
            burst: None,
            fault: None,
            interference: None,
        }
    }

    /// Tiny noiseless simulator for unit tests.
    pub fn test_tiny() -> Self {
        Simulator {
            cluster: ClusterSpec::test_tiny(),
            fs: LustreSpec::test_small(),
            noise: NoiseModel::disabled(),
            burst: None,
            fault: None,
            interference: None,
        }
    }

    /// Enable a burst-buffer tier (builder style).
    pub fn with_burst_buffer(mut self, spec: BurstBufferSpec) -> Self {
        self.burst = Some(spec);
        self
    }

    /// Attach a fault-injection schedule (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attach a heteroscedastic interference model (builder style). Inert
    /// models (the `quiet` profile) are dropped so the fast path stays
    /// branch-free.
    pub fn with_interference(mut self, model: InterferenceModel) -> Self {
        self.interference = (!model.is_inert()).then_some(model);
        self
    }

    /// Execute `phases` once under `cfg`; `run_idx` selects the noise draw.
    pub fn run(&self, phases: &[Phase], cfg: &StackConfig, run_idx: u32) -> RunReport {
        self.run_profiled(phases, cfg, run_idx).0
    }

    /// [`Self::run`] with per-layer cost attribution: the same run (the
    /// report is bitwise identical), plus a [`Profile`] whose layer self
    /// times reconstruct the report's compute/io/meta split exactly.
    pub fn run_profiled(
        &self,
        phases: &[Phase],
        cfg: &StackConfig,
        run_idx: u32,
    ) -> (RunReport, Profile) {
        self.run_profiled_degraded(phases, cfg, run_idx, 0)
    }

    /// [`Self::run_profiled`] with `ost_loss` OSTs dropped from every
    /// transfer's layout — the degraded path an OST flap produces. With
    /// `ost_loss == 0` this *is* `run_profiled`, bit for bit.
    fn run_profiled_degraded(
        &self,
        phases: &[Phase],
        cfg: &StackConfig,
        run_idx: u32,
        ost_loss: u32,
    ) -> (RunReport, Profile) {
        let mut report = RunReport::default();
        let mut profile = Profile::new();
        let mut bb_state = BurstBufferState::empty();
        let fp = fingerprint_of(cfg);
        // Virtual clock for the interference timeline: each repeat of a
        // config starts at its own hashed offset, then the clock advances
        // by simulated phase durations so back-to-back I/O phases see
        // correlated (bursty) interference, not fresh i.i.d. draws.
        let mut clock = self
            .interference
            .as_ref()
            .map(|m| m.start_time(fp, run_idx))
            .unwrap_or(0.0);
        for phase in phases {
            match phase {
                Phase::Compute { seconds } => {
                    report.compute_time_s += seconds;
                    report.elapsed_s += seconds;
                    profile.add(Layer::Compute, *seconds, 0.0, 0.0);
                    clock += seconds;
                    if let Some(bb) = &self.burst {
                        bb_state.drain(bb, *seconds);
                    }
                }
                Phase::Io(io) => {
                    let (mut contribution, mut phase_profile) =
                        self.run_io_phase(io, cfg, ost_loss, clock, fp);
                    // A burst buffer absorbs writes at memory-class speed;
                    // only the spill-over pays the PFS path. The absorbed
                    // data drains during subsequent compute phases.
                    if let (Some(bb), IoKind::Write) = (&self.burst, io.kind) {
                        let total = contribution.bytes_written.max(1.0);
                        let (absorbed, absorb_time) =
                            bb_state.absorb(bb, self.cluster.nodes, total);
                        let spill_fraction = 1.0 - absorbed / total;
                        contribution.io_time_s =
                            absorb_time + contribution.io_time_s * spill_fraction;
                        contribution.elapsed_s = contribution.io_time_s + contribution.meta_time_s;
                        // Attribution: the PFS-path layers keep only the
                        // spill fraction of their time; the rest became
                        // burst-buffer ingest.
                        phase_profile.scale_io_time(spill_fraction);
                        phase_profile.add(Layer::Burst, absorb_time, absorbed, 0.0);
                    }
                    clock += contribution.elapsed_s;
                    report.absorb(&contribution);
                    profile.absorb(&phase_profile);
                }
            }
        }
        // Platform volatility perturbs the I/O portion of the run.
        let mult = self.noise.time_multiplier(fp, run_idx);
        report.io_time_s *= mult;
        report.meta_time_s *= mult;
        report.elapsed_s = report.compute_time_s + report.io_time_s + report.meta_time_s;
        profile.scale_noise(mult);
        (report, profile)
    }

    /// The paper's methodology: run `repeats` times, average the reports.
    /// Tuning *cost* should count only one run's elapsed time (§IV:
    /// "the time cost of running the application is not accumulated across
    /// runs"), which callers obtain from the averaged `elapsed_s`.
    pub fn run_averaged(&self, phases: &[Phase], cfg: &StackConfig, repeats: u32) -> RunReport {
        let runs: Vec<RunReport> = (0..repeats.max(1))
            .map(|i| self.run(phases, cfg, i))
            .collect();
        RunReport::average(&runs)
    }

    /// [`Self::run_averaged`] with cost attribution: averages the reports
    /// exactly as `run_averaged` does (bitwise-identical report) and
    /// averages the per-run profiles the same way.
    pub fn run_averaged_profiled(
        &self,
        phases: &[Phase],
        cfg: &StackConfig,
        repeats: u32,
    ) -> (RunReport, Profile) {
        let mut runs = Vec::new();
        let mut profiles = Vec::new();
        for i in 0..repeats.max(1) {
            let (report, profile) = self.run_profiled(phases, cfg, i);
            runs.push(report);
            profiles.push(profile);
        }
        (RunReport::average(&runs), Profile::average(&profiles))
    }

    /// Fallible single run: consults the attached [`FaultPlan`] (if any)
    /// and injects at most one fault. `attempt` distinguishes retries so a
    /// transient fault does not deterministically recur forever.
    ///
    /// Returns the report and profile plus the fault that fired, if one
    /// did; a [`FaultKind::Transient`] fault kills the run with `Err`.
    /// Without a plan (or with an inert one) the result is bitwise
    /// identical to [`Self::run_profiled`].
    pub fn try_run_profiled(
        &self,
        phases: &[Phase],
        cfg: &StackConfig,
        run_idx: u32,
        attempt: u32,
    ) -> Result<(RunReport, Profile, Option<InjectedFault>), SimFault> {
        let drawn = self
            .fault
            .as_ref()
            .and_then(|plan| plan.draw(fingerprint_of(cfg), run_idx, attempt));
        let Some(kind) = drawn else {
            let (report, profile) = self.run_profiled(phases, cfg, run_idx);
            return Ok((report, profile, None));
        };
        let fault = InjectedFault {
            kind,
            run_idx,
            attempt,
        };
        let plan = self.fault.as_ref().expect("fault drawn implies plan");
        match kind {
            FaultKind::Transient => Err(SimFault { fault }),
            FaultKind::Straggler => {
                let (mut report, mut profile) = self.run_profiled(phases, cfg, run_idx);
                let slow = plan.straggler_slowdown.max(1.0);
                report.io_time_s *= slow;
                report.meta_time_s *= slow;
                report.elapsed_s = report.compute_time_s + report.io_time_s + report.meta_time_s;
                profile.scale_noise(slow);
                Ok((report, profile, Some(fault)))
            }
            FaultKind::OstFlap => {
                let (report, profile) =
                    self.run_profiled_degraded(phases, cfg, run_idx, plan.ost_flap_loss);
                Ok((report, profile, Some(fault)))
            }
            FaultKind::Corrupt => {
                // The run "finished" but its log is torn: the byte counters
                // read back as NaN, the way a truncated Darshan file does —
                // which makes the derived bandwidths (and `perf`) NaN too.
                let (mut report, profile) = self.run_profiled(phases, cfg, run_idx);
                report.bytes_written = f64::NAN;
                report.bytes_read = f64::NAN;
                Ok((report, profile, Some(fault)))
            }
        }
    }

    /// Fallible counterpart of [`Self::run_averaged_profiled`]: any
    /// transient fault aborts the whole attempt, non-fatal faults are
    /// collected. Fault-free results are bitwise identical to the
    /// infallible path.
    pub fn try_run_averaged_profiled(
        &self,
        phases: &[Phase],
        cfg: &StackConfig,
        repeats: u32,
        attempt: u32,
    ) -> Result<(RunReport, Profile, Vec<InjectedFault>), SimFault> {
        let mut runs = Vec::new();
        let mut profiles = Vec::new();
        let mut faults = Vec::new();
        for i in 0..repeats.max(1) {
            let (report, profile, fault) = self.try_run_profiled(phases, cfg, i, attempt)?;
            runs.push(report);
            profiles.push(profile);
            faults.extend(fault);
        }
        Ok((
            RunReport::average(&runs),
            Profile::average(&profiles),
            faults,
        ))
    }

    /// Simulate one bulk-I/O phase, attributing cost per stack layer.
    ///
    /// Attribution model ("self time"): the phase's `io_time_s` is
    /// `max(storage, network_floor) + shuffle`. The max is split into the
    /// library's own amplification share (HDF5), the client network gap
    /// above raw storage time (network), OST streaming (lustre.data) and
    /// per-request RPC service (lustre.rpc); the two-phase shuffle is the
    /// middleware's own cost (mpiio) and `meta_time_s` is the MDS's (mds).
    /// The layer self times sum to the report's io+meta time to within
    /// float rounding.
    fn run_io_phase(
        &self,
        io: &crate::request::IoPhase,
        cfg: &StackConfig,
        ost_loss: u32,
        t0: f64,
        fp: u64,
    ) -> (RunReport, Profile) {
        // Layer 1: HDF5-like library transforms the request stream.
        let traffic = hdf5::raw_data_traffic(io, cfg);
        let meta = hdf5::metadata_traffic(io, cfg, self.cluster.procs);

        // Layer 2: MPI-IO-like middleware decides what the FS sees.
        let fs_load = mpiio::middleware(io, &traffic, cfg, &self.cluster);

        // Layer 3: Lustre-like PFS services the requests. Reads of
        // pre-existing datasets are served by the input's own layout when
        // it is wider than the configured striping.
        let stripe_count = match io.kind {
            IoKind::Read => cfg.striping_factor.max(io.pre_striped),
            IoKind::Write => cfg.striping_factor,
        };
        // An OST flap shrinks the serviced layout below what the striping
        // requested; at least one OST always survives.
        let osts = self
            .fs
            .osts_used(stripe_count)
            .saturating_sub(ost_loss)
            .max(1);
        let align_eff =
            self.fs
                .alignment_efficiency(fs_load.request_size, cfg.striping_unit, cfg.alignment);
        // Irregular request streams defeat OST readahead/write-behind.
        let pattern_eff = 1.0 - 0.72 * fs_load.irregularity;
        let efficiency = align_eff * pattern_eff;

        let (stream_time, rpc_time) = self.fs.transfer_breakdown(
            fs_load.total_bytes,
            fs_load.fs_requests,
            osts,
            fs_load.streams,
            efficiency,
        );
        let storage_time = stream_time + rpc_time;

        // Clients can not push bytes faster than their network injection —
        // and irregular, fine-grained request streams cannot keep the wire
        // full (extent-lock ping-pong and per-RPC client overhead), which
        // is exactly the badness two-phase collective buffering removes.
        let sender_nodes = if fs_load.aggregated {
            (fs_load.streams as f64).min(self.cluster.nodes as f64)
        } else {
            self.cluster.nodes as f64
        };
        let client_eff = (1.0 - fs_load.irregularity).powf(3.0).clamp(0.05, 1.0);
        let network_floor =
            fs_load.total_bytes / (sender_nodes * self.cluster.node_network_bw * client_eff);

        let meta_time = self
            .fs
            .metadata_time(meta.total_ops, meta.clients, meta.cost_factor);

        let mut io_time = storage_time.max(network_floor) + fs_load.shuffle_time;

        let total_bytes = traffic.per_proc_bytes * self.cluster.procs as f64;
        let total_ops = traffic.ops_per_proc * self.cluster.procs as f64;
        let (bw, br, ow, or) = match io.kind {
            IoKind::Write => (total_bytes, 0.0, total_ops, 0.0),
            IoKind::Read => (0.0, total_bytes, 0.0, total_ops),
        };

        // Cost attribution. The binding constraint on the data path is
        // `transfer = max(storage, network_floor)`; `network_self` is the
        // client-side gap above raw storage time (zero when storage-bound).
        // `scale` renormalizes the three data-path components so they sum
        // to `transfer` exactly (it is 1.0 up to float rounding), and the
        // library layer takes credit for the fraction of downstream work
        // its read-modify-write amplification created.
        let transfer = storage_time.max(network_floor);
        let network_self = (network_floor - storage_time).max(0.0);
        let amp_share = traffic.amplified_share();
        let base = stream_time + rpc_time + network_self;
        let scale = if base > 0.0 { transfer / base } else { 0.0 };
        let under = 1.0 - amp_share;
        let mut profile = Profile::new();
        profile.add(Layer::Hdf5, transfer * amp_share, total_bytes, total_ops);
        profile.add(
            Layer::Mpiio,
            fs_load.shuffle_time,
            fs_load.shuffled_bytes,
            fs_load.fs_requests,
        );
        profile.add(
            Layer::Network,
            network_self * scale * under,
            fs_load.total_bytes,
            0.0,
        );
        profile.add(
            Layer::LustreData,
            stream_time * scale * under,
            fs_load.total_bytes,
            0.0,
        );
        profile.add(
            Layer::LustreRpc,
            rpc_time * scale * under,
            0.0,
            fs_load.fs_requests,
        );
        profile.add(Layer::Mds, meta_time, 0.0, meta.total_ops);

        // Cross-tenant interference re-evaluates the binding constraint:
        // busy OSTs slow the storage path (gated by the slowest engaged
        // stripe), fabric contention raises the client injection floor.
        // Only the *added* time over the undisturbed transfer is charged,
        // as its own layer — interference is attributed, never smeared
        // across the clean layers' budgets.
        if let Some(model) = &self.interference {
            let window = io_time + meta_time;
            let first = model.first_ost(fp, self.fs.n_osts);
            let slow = model.storage_slowdown(t0, window, first, osts);
            let net = model.network_contention(t0, window);
            let disturbed = (storage_time * slow).max(network_floor * net);
            let extra = disturbed - storage_time.max(network_floor);
            if extra > 0.0 {
                io_time += extra;
                profile.add(Layer::Interference, extra, 0.0, 0.0);
            }
        }

        let report = RunReport {
            elapsed_s: io_time + meta_time,
            io_time_s: io_time,
            meta_time_s: meta_time,
            compute_time_s: 0.0,
            bytes_written: bw,
            bytes_read: br,
            write_ops: ow,
            read_ops: or,
        };
        (report, profile)
    }
}

/// Noise fingerprint of a resolved configuration.
fn fingerprint_of(cfg: &StackConfig) -> u64 {
    fingerprint(&[
        cfg.sieve_buf_size as usize,
        cfg.chunk_cache as usize,
        cfg.alignment as usize,
        cfg.meta_block_size as usize,
        cfg.coll_meta_ops as usize,
        cfg.mdc_config.metadata_cost_factor().to_bits() as usize,
        cfg.coll_metadata_write as usize,
        cfg.striping_factor as usize,
        cfg.striping_unit as usize,
        cfg.cb_nodes as usize,
        cfg.cb_buffer_size as usize,
        cfg.collective_io as usize,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::{Configuration, ParamId, ParameterSpace};

    const MIB: u64 = 1024 * 1024;
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn space() -> ParameterSpace {
        ParameterSpace::tunio_default()
    }

    /// A HACC-like checkpoint: interleaved particle records, write-heavy.
    fn checkpoint_phases() -> Vec<Phase> {
        vec![
            Phase::compute(5.0),
            Phase::Io(IoPhase {
                dataset: "checkpoint".into(),
                kind: IoKind::Write,
                per_proc_bytes: 256 * MIB,
                ops_per_proc: 2048,
                pattern: AccessPattern::Strided { record: 128 * 1024 },
                meta_ops: 16,
                collective_capable: true,
                chunk_reuse_bytes: 0,
                pre_striped: 0,
            }),
        ]
    }

    fn tuned_config(space: &ParameterSpace) -> Configuration {
        let mut c = space.default_config();
        c.set_gene(ParamId::CollectiveIo, 1);
        c.set_gene(ParamId::CbNodes, 2); // 4 aggregators
        c.set_gene(ParamId::CbBufferSize, 6); // 64 MiB
        c.set_gene(ParamId::StripingFactor, 9); // 64 OSTs
        c.set_gene(ParamId::StripingUnit, 5); // 8 MiB
        c.set_gene(ParamId::Alignment, 5); // 4 MiB
        c
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = Simulator::cori_4node(11);
        let s = space();
        let cfg = StackConfig::defaults(&s);
        let a = sim.run(&checkpoint_phases(), &cfg, 0);
        let b = sim.run(&checkpoint_phases(), &cfg, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn tuned_config_beats_defaults_substantially() {
        // The paper reports ~4x improvement for HACC after tuning (§IV-C).
        let sim = Simulator::cori_4node(11);
        let s = space();
        let default = sim.run_averaged(&checkpoint_phases(), &StackConfig::defaults(&s), 3);
        let tuned = sim.run_averaged(&checkpoint_phases(), &tuned_config(&s).resolve(&s), 3);
        let gain = tuned.perf() / default.perf();
        assert!(gain > 2.5, "tuning gain only {gain:.2}x");
        assert!(gain < 30.0, "tuning gain implausibly large: {gain:.2}x");
    }

    #[test]
    fn four_node_bandwidth_in_paper_ballpark() {
        // Tuned HACC on 4 nodes reaches ~2.2 GB/s in the paper.
        let sim = Simulator::cori_4node(11);
        let s = space();
        let tuned = sim.run_averaged(&checkpoint_phases(), &tuned_config(&s).resolve(&s), 3);
        let gbs = tuned.perf() / GIB;
        assert!((0.5..20.0).contains(&gbs), "tuned perf {gbs:.2} GiB/s");
    }

    #[test]
    fn compute_phases_add_elapsed_but_no_io() {
        let sim = Simulator::test_tiny();
        let s = space();
        let report = sim.run(&[Phase::compute(7.5)], &StackConfig::defaults(&s), 0);
        assert_eq!(report.compute_time_s, 7.5);
        assert_eq!(report.io_time_s, 0.0);
        assert_eq!(report.bytes_written + report.bytes_read, 0.0);
    }

    #[test]
    fn high_impact_params_move_perf_more_than_low_impact() {
        // This is the ground-truth property the Smart Configuration
        // Generation component must discover (7 high / 5 low).
        let sim = Simulator::cori_4node(3);
        let s = space();
        let phases = checkpoint_phases();
        let base = sim
            .run_averaged(&phases, &s.default_config().resolve(&s), 3)
            .perf();

        let spread = |p: ParamId| -> f64 {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for idx in 0..s.cardinality(p) {
                let mut c = s.default_config();
                c.set_gene(p, idx);
                let perf = sim.run_averaged(&phases, &c.resolve(&s), 3).perf();
                lo = lo.min(perf);
                hi = hi.max(perf);
            }
            (hi - lo) / base
        };

        let high = spread(ParamId::StripingFactor).max(spread(ParamId::CollectiveIo));
        let low = spread(ParamId::MetaBlockSize).max(spread(ParamId::MdcConfig));
        assert!(
            high > 5.0 * low,
            "high-impact spread {high:.4} should dwarf low-impact {low:.4}"
        );
    }

    #[test]
    fn averaging_reduces_noise() {
        let sim = Simulator::cori_4node(5);
        let s = space();
        let cfg = StackConfig::defaults(&s);
        let phases = checkpoint_phases();
        let singles: Vec<f64> = (0..9).map(|i| sim.run(&phases, &cfg, i).perf()).collect();
        let spread = singles.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - singles.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "noise should make runs differ");
        let avg = sim.run_averaged(&phases, &cfg, 9).perf();
        let mean: f64 = singles.iter().sum::<f64>() / singles.len() as f64;
        assert!((avg - mean).abs() / mean < 0.05);
    }

    #[test]
    fn profiled_run_returns_identical_report() {
        let sim = Simulator::cori_4node(11);
        let s = space();
        let cfg = StackConfig::defaults(&s);
        let plain = sim.run(&checkpoint_phases(), &cfg, 2);
        let (profiled, _) = sim.run_profiled(&checkpoint_phases(), &cfg, 2);
        assert_eq!(plain, profiled);
    }

    #[test]
    fn profile_layers_reconstruct_report_times() {
        let sim = Simulator::cori_4node(11);
        let s = space();
        for cfg in [StackConfig::defaults(&s), tuned_config(&s).resolve(&s)] {
            for run_idx in 0..3 {
                let (report, profile) = sim.run_profiled(&checkpoint_phases(), &cfg, run_idx);
                let err = profile.attribution_error(&report);
                assert!(err < 1e-9, "attribution error {err} for run {run_idx}");
            }
        }
    }

    #[test]
    fn profile_attribution_holds_for_reads() {
        let sim = Simulator::cori_4node(7);
        let s = space();
        let phases = vec![Phase::Io(IoPhase {
            dataset: "in".into(),
            kind: IoKind::Read,
            per_proc_bytes: 64 * MIB,
            ops_per_proc: 512,
            pattern: AccessPattern::Strided { record: 64 * 1024 },
            meta_ops: 8,
            collective_capable: true,
            chunk_reuse_bytes: 512 * 1024 * 1024,
            pre_striped: 16,
        })];
        let (report, profile) = sim.run_profiled(&phases, &StackConfig::defaults(&s), 1);
        assert!(profile.attribution_error(&report) < 1e-9);
        // Chunk-cache amplification charges the library layer.
        assert!(profile.get(Layer::Hdf5).self_s > 0.0);
    }

    #[test]
    fn averaged_profile_matches_averaged_report() {
        let sim = Simulator::cori_4node(5);
        let s = space();
        let cfg = StackConfig::defaults(&s);
        let phases = checkpoint_phases();
        let plain = sim.run_averaged(&phases, &cfg, 3);
        let (report, profile) = sim.run_averaged_profiled(&phases, &cfg, 3);
        assert_eq!(plain, report);
        assert!(profile.attribution_error(&report) < 1e-9);
    }

    #[test]
    fn read_phase_populates_read_side() {
        let sim = Simulator::test_tiny();
        let s = space();
        let phases = vec![Phase::Io(IoPhase {
            dataset: "in".into(),
            kind: IoKind::Read,
            per_proc_bytes: 8 * MIB,
            ops_per_proc: 64,
            pattern: AccessPattern::Contiguous,
            meta_ops: 2,
            collective_capable: true,
            chunk_reuse_bytes: 0,
            pre_striped: 0,
        })];
        let r = sim.run(&phases, &StackConfig::defaults(&s), 0);
        assert!(r.bytes_read > 0.0);
        assert_eq!(r.bytes_written, 0.0);
        assert_eq!(r.alpha(), 0.0);
        assert!(r.perf() > 0.0);
    }
}

#[cfg(test)]
mod pre_striped_tests {
    use super::*;
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::ParameterSpace;

    #[test]
    fn pre_striped_inputs_speed_up_default_reads_only() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space); // striping_factor = 1
        let sim = Simulator::cori_500node(2);
        let phase = |pre: u32, kind: IoKind| {
            vec![Phase::Io(IoPhase {
                dataset: "in".into(),
                kind,
                per_proc_bytes: 64 * 1024 * 1024,
                ops_per_proc: 256,
                pattern: AccessPattern::Strided {
                    record: 1024 * 1024,
                },
                meta_ops: 2,
                collective_capable: true,
                chunk_reuse_bytes: 0,
                pre_striped: pre,
            })]
        };
        let narrow = sim.run(&phase(0, IoKind::Read), &cfg, 0).elapsed_s;
        let wide = sim.run(&phase(64, IoKind::Read), &cfg, 0).elapsed_s;
        assert!(
            wide < narrow / 4.0,
            "pre-striped read {wide} should beat stripe-1 {narrow}"
        );
        // Writes ignore pre_striped — the job's own striping governs.
        let w_narrow = sim.run(&phase(0, IoKind::Write), &cfg, 0).elapsed_s;
        let w_wide = sim.run(&phase(64, IoKind::Write), &cfg, 0).elapsed_s;
        assert!((w_narrow - w_wide).abs() < 1e-9);
    }
}

#[cfg(test)]
mod burst_buffer_tests {
    use super::*;
    use crate::burst::BurstBufferSpec;
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::ParameterSpace;

    fn checkpoint(per_proc_mib: u64) -> Vec<Phase> {
        vec![
            Phase::compute(30.0),
            Phase::Io(IoPhase {
                dataset: "ckpt".into(),
                kind: IoKind::Write,
                per_proc_bytes: per_proc_mib * 1024 * 1024,
                ops_per_proc: 64,
                pattern: AccessPattern::Strided { record: 256 * 1024 },
                meta_ops: 4,
                collective_capable: true,
                chunk_reuse_bytes: 0,
                pre_striped: 0,
            }),
        ]
    }

    #[test]
    fn burst_buffer_absorbs_small_checkpoints() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let plain = Simulator::cori_4node(9);
        let buffered = Simulator::cori_4node(9).with_burst_buffer(BurstBufferSpec::datawarp_like());
        let phases = checkpoint(64); // 8 GiB total: fits in the tier
        let t_plain = plain.run(&phases, &cfg, 0).io_time_s;
        let t_bb = buffered.run(&phases, &cfg, 0).io_time_s;
        assert!(
            t_bb < t_plain / 5.0,
            "burst buffer should absorb the write: {t_bb} vs {t_plain}"
        );
    }

    #[test]
    fn oversized_checkpoints_spill_to_pfs() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let spec = BurstBufferSpec {
            capacity_per_node: 512.0 * 1024.0 * 1024.0, // 2 GiB across 4 nodes
            ..BurstBufferSpec::datawarp_like()
        };
        let buffered = Simulator::cori_4node(9).with_burst_buffer(spec);
        let plain = Simulator::cori_4node(9);
        let phases = checkpoint(256); // 32 GiB: mostly spills
        let t_bb = buffered.run(&phases, &cfg, 0).io_time_s;
        let t_plain = plain.run(&phases, &cfg, 0).io_time_s;
        assert!(t_bb < t_plain, "partial absorption still helps");
        assert!(
            t_bb > t_plain * 0.5,
            "most bytes spill, so most of the PFS cost remains: {t_bb} vs {t_plain}"
        );
    }

    #[test]
    fn compute_phases_drain_the_tier() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let spec = BurstBufferSpec {
            capacity_per_node: 2048.0 * 1024.0 * 1024.0, // 8 GiB across 4 nodes
            ..BurstBufferSpec::datawarp_like()
        };
        let buffered = Simulator::cori_4node(9).with_burst_buffer(spec);
        // Two 8 GiB checkpoints: back-to-back they overflow the tier, but
        // with a long compute phase between them the drain frees space.
        let one = checkpoint(64);
        let mut back_to_back = one.clone();
        back_to_back.extend(checkpoint(64).into_iter().skip(1)); // no compute gap
        let mut spaced = one.clone();
        spaced.push(Phase::compute(600.0));
        spaced.extend(checkpoint(64).into_iter().skip(1));
        let t_tight = buffered.run(&back_to_back, &cfg, 0).io_time_s;
        let t_spaced = buffered.run(&spaced, &cfg, 0).io_time_s;
        assert!(
            t_spaced < t_tight,
            "draining during compute must free capacity: {t_spaced} vs {t_tight}"
        );
    }

    #[test]
    fn burst_attribution_reconstructs_report() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let spec = BurstBufferSpec {
            capacity_per_node: 512.0 * 1024.0 * 1024.0, // forces a partial spill
            ..BurstBufferSpec::datawarp_like()
        };
        let sim = Simulator::cori_4node(9).with_burst_buffer(spec);
        let (report, profile) = sim.run_profiled(&checkpoint(256), &cfg, 0);
        assert!(profile.attribution_error(&report) < 1e-9);
        let burst = profile.get(crate::profile::Layer::Burst);
        assert!(burst.self_s > 0.0, "ingest time must be charged to burst");
        assert!(burst.bytes > 0.0);
    }

    #[test]
    fn reads_are_unaffected_by_burst_buffer() {
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let phases = vec![Phase::Io(IoPhase {
            dataset: "in".into(),
            kind: IoKind::Read,
            per_proc_bytes: 64 * 1024 * 1024,
            ops_per_proc: 64,
            pattern: AccessPattern::Contiguous,
            meta_ops: 2,
            collective_capable: true,
            chunk_reuse_bytes: 0,
            pre_striped: 0,
        })];
        let plain = Simulator::cori_4node(9).run(&phases, &cfg, 0);
        let buffered = Simulator::cori_4node(9)
            .with_burst_buffer(BurstBufferSpec::datawarp_like())
            .run(&phases, &cfg, 0);
        assert_eq!(plain, buffered);
    }
}

#[cfg(test)]
mod stdio_tests {
    use super::*;
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::ParameterSpace;

    #[test]
    fn logging_writes_are_coalesced_client_side() {
        // Tiny non-collective (stdio) writes must not pay per-op FS
        // request overhead: compare against the same volume issued as
        // collective-capable independent ops.
        let space = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&space);
        let sim = Simulator::cori_4node(1);
        let phase = |collective_capable| {
            vec![Phase::Io(IoPhase {
                dataset: "log".into(),
                kind: IoKind::Write,
                per_proc_bytes: 1024 * 1024,
                ops_per_proc: 8192, // 128-byte printf lines
                pattern: AccessPattern::Contiguous,
                meta_ops: 0,
                collective_capable,
                chunk_reuse_bytes: 0,
                pre_striped: 0,
            })]
        };
        let stdio = sim.run(&phase(false), &cfg, 0).io_time_s;
        let raw = sim.run(&phase(true), &cfg, 0).io_time_s;
        assert!(
            stdio < raw / 3.0,
            "stdio buffering should coalesce: {stdio} vs {raw}"
        );
    }
}

#[cfg(test)]
mod interference_tests {
    use super::*;
    use crate::interference::{InterferenceModel, NoiseProfile};
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::{ParamId, ParameterSpace};

    const MIB: u64 = 1024 * 1024;

    fn phases() -> Vec<Phase> {
        vec![
            Phase::compute(5.0),
            Phase::Io(IoPhase {
                dataset: "ckpt".into(),
                kind: IoKind::Write,
                per_proc_bytes: 256 * MIB,
                ops_per_proc: 2048,
                pattern: AccessPattern::Strided { record: 128 * 1024 },
                meta_ops: 16,
                collective_capable: true,
                chunk_reuse_bytes: 0,
                pre_striped: 0,
            }),
        ]
    }

    fn striped(space: &ParameterSpace, stripe_gene: usize) -> StackConfig {
        let mut c = space.default_config();
        c.set_gene(ParamId::CollectiveIo, 1);
        c.set_gene(ParamId::StripingFactor, stripe_gene);
        c.resolve(space)
    }

    #[test]
    fn quiet_profile_is_bitwise_identical_to_no_model() {
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let plain = Simulator::cori_4node(11);
        let quiet = Simulator::cori_4node(11)
            .with_interference(InterferenceModel::new(NoiseProfile::Quiet, 77));
        assert!(quiet.interference.is_none(), "inert models are dropped");
        let (a, pa) = plain.run_profiled(&phases(), &cfg, 0);
        let (b, pb) = quiet.run_profiled(&phases(), &cfg, 0);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
    }

    #[test]
    fn storm_interference_is_deterministic_and_attributed() {
        let s = ParameterSpace::tunio_default();
        let cfg = striped(&s, 9); // 64 OSTs
        let sim = Simulator::cori_4node(11)
            .with_interference(InterferenceModel::new(NoiseProfile::Storm, 5));
        let (a, pa) = sim.run_profiled(&phases(), &cfg, 0);
        let (b, pb) = sim.run_profiled(&phases(), &cfg, 0);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
        // Some repeat must hit an episode; its cost lands on the
        // interference layer and attribution still reconstructs exactly.
        let mut hit = false;
        for run_idx in 0..16 {
            let (report, profile) = sim.run_profiled(&phases(), &cfg, run_idx);
            assert!(profile.attribution_error(&report) < 1e-9);
            hit |= profile.get(Layer::Interference).self_s > 0.0;
        }
        assert!(hit, "a storm must hit a 64-OST config within 16 repeats");
    }

    #[test]
    fn wider_stripes_see_more_exposure_and_real_variance() {
        // The heteroscedastic core claim: stripe-wide configs touch more
        // OSTs, so a storm charges them a larger share of interference
        // time than a narrow config — and repeats of the wide config must
        // actually *vary* (the racing evaluator's reason to exist). The
        // 500-node scale keeps the storage path binding; on 4 nodes the
        // client network floor dominates and OST pinning cannot surface.
        let s = ParameterSpace::tunio_default();
        let sim = Simulator::cori_500node(11)
            .with_interference(InterferenceModel::new(NoiseProfile::Storm, 3));
        let exposure = |cfg: &StackConfig| {
            let mut share = 0.0;
            for i in 0..24 {
                let (report, profile) = sim.run_profiled(&phases(), cfg, i);
                share += profile.get(Layer::Interference).self_s / report.io_time_s;
            }
            share / 24.0
        };
        let narrow = exposure(&striped(&s, 0)); // 1 OST
        let wide = exposure(&striped(&s, 9)); // 64 OSTs
        assert!(
            wide > narrow,
            "wide-stripe exposure {wide:.4} should exceed narrow {narrow:.4}"
        );
        let wide_cfg = striped(&s, 9);
        let times: Vec<f64> = (0..24)
            .map(|i| sim.run(&phases(), &wide_cfg, i).io_time_s)
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / times.len() as f64;
        assert!(
            var.sqrt() / mean > 0.02,
            "storm repeats must differ materially: rel std {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn try_run_paths_carry_interference() {
        let s = ParameterSpace::tunio_default();
        let cfg = striped(&s, 9);
        let sim = Simulator::cori_4node(11)
            .with_interference(InterferenceModel::new(NoiseProfile::Storm, 5));
        let (plain, plain_prof) = sim.run_averaged_profiled(&phases(), &cfg, 3);
        let (r, p, faults) = sim
            .try_run_averaged_profiled(&phases(), &cfg, 3, 0)
            .unwrap();
        assert_eq!(plain, r);
        assert_eq!(plain_prof, p);
        assert!(faults.is_empty());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::request::{AccessPattern, IoPhase};
    use tunio_params::ParameterSpace;

    fn phases() -> Vec<Phase> {
        vec![
            Phase::compute(2.0),
            Phase::Io(IoPhase {
                dataset: "ckpt".into(),
                kind: IoKind::Write,
                per_proc_bytes: 64 * 1024 * 1024,
                ops_per_proc: 256,
                pattern: AccessPattern::Strided { record: 256 * 1024 },
                meta_ops: 4,
                collective_capable: true,
                chunk_reuse_bytes: 0,
                pre_striped: 0,
            }),
        ]
    }

    /// Find an `(attempt)` where the plan draws `kind` for this config.
    fn attempt_with(sim: &Simulator, cfg: &StackConfig, kind: FaultKind) -> u32 {
        let plan = sim.fault.as_ref().unwrap();
        let fp = fingerprint_of(cfg);
        (0..10_000)
            .find(|&a| plan.draw(fp, 0, a) == Some(kind))
            .expect("fault kind never drawn")
    }

    #[test]
    fn no_plan_try_run_matches_run_bitwise() {
        let sim = Simulator::cori_4node(11);
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let (plain, plain_prof) = sim.run_profiled(&phases(), &cfg, 1);
        let (r, p, fault) = sim.try_run_profiled(&phases(), &cfg, 1, 0).unwrap();
        assert_eq!(plain, r);
        assert_eq!(plain_prof, p);
        assert_eq!(fault, None);
    }

    #[test]
    fn inert_plan_is_bitwise_identical_too() {
        let sim = Simulator::cori_4node(11).with_fault_plan(FaultPlan::disabled(5));
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let plain = Simulator::cori_4node(11).run_averaged_profiled(&phases(), &cfg, 3);
        let (r, p, faults) = sim
            .try_run_averaged_profiled(&phases(), &cfg, 3, 0)
            .unwrap();
        assert_eq!(plain.0, r);
        assert_eq!(plain.1, p);
        assert!(faults.is_empty());
    }

    #[test]
    fn transient_fault_kills_the_run() {
        let sim = Simulator::cori_4node(11).with_fault_plan(FaultPlan::chaos(3, 0.4));
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let attempt = attempt_with(&sim, &cfg, FaultKind::Transient);
        let err = sim
            .try_run_profiled(&phases(), &cfg, 0, attempt)
            .unwrap_err();
        assert_eq!(err.fault.kind, FaultKind::Transient);
        assert_eq!(err.fault.attempt, attempt);
    }

    #[test]
    fn straggler_inflates_io_time_and_keeps_attribution() {
        let sim = Simulator::cori_4node(11).with_fault_plan(FaultPlan::chaos(3, 0.4));
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let attempt = attempt_with(&sim, &cfg, FaultKind::Straggler);
        let (clean, _) = sim.run_profiled(&phases(), &cfg, 0);
        let (slow, prof, fault) = sim.try_run_profiled(&phases(), &cfg, 0, attempt).unwrap();
        assert_eq!(fault.unwrap().kind, FaultKind::Straggler);
        assert!((slow.io_time_s / clean.io_time_s - 4.0).abs() < 1e-9);
        assert_eq!(slow.compute_time_s, clean.compute_time_s);
        assert!(prof.attribution_error(&slow) < 1e-9);
    }

    #[test]
    fn ost_flap_slows_wide_stripes() {
        // A severe flap (64 -> 1 OSTs) so the storage path becomes the
        // binding constraint even on the network-rich 4-node cluster.
        let plan = FaultPlan {
            ost_flap_loss: 63,
            ..FaultPlan::chaos(3, 0.4)
        };
        let sim = Simulator::cori_4node(11).with_fault_plan(plan);
        let s = ParameterSpace::tunio_default();
        // A wide-striped config so losing 8 OSTs actually hurts.
        let mut c = s.default_config();
        c.set_gene(tunio_params::ParamId::StripingFactor, 9); // 64 OSTs
        let cfg = c.resolve(&s);
        let attempt = attempt_with(&sim, &cfg, FaultKind::OstFlap);
        let (clean, _) = sim.run_profiled(&phases(), &cfg, 0);
        let (flapped, prof, fault) = sim.try_run_profiled(&phases(), &cfg, 0, attempt).unwrap();
        assert_eq!(fault.unwrap().kind, FaultKind::OstFlap);
        assert!(
            flapped.io_time_s > clean.io_time_s,
            "losing OSTs must cost time: {} vs {}",
            flapped.io_time_s,
            clean.io_time_s
        );
        assert!(prof.attribution_error(&flapped) < 1e-9);
    }

    #[test]
    fn corrupt_fault_poisons_the_report() {
        let sim = Simulator::cori_4node(11).with_fault_plan(FaultPlan::chaos(3, 0.4));
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        let attempt = attempt_with(&sim, &cfg, FaultKind::Corrupt);
        let (r, _, fault) = sim.try_run_profiled(&phases(), &cfg, 0, attempt).unwrap();
        assert_eq!(fault.unwrap().kind, FaultKind::Corrupt);
        assert!(r.bytes_written.is_nan());
        assert!(!r.is_sane());
        assert!(r.perf().is_nan(), "corruption must be NaN, not silently ok");
    }

    #[test]
    fn sane_reports_pass_the_validity_gate() {
        let sim = Simulator::cori_4node(11);
        let s = ParameterSpace::tunio_default();
        let cfg = StackConfig::defaults(&s);
        assert!(sim.run(&phases(), &cfg, 0).is_sane());
    }
}
