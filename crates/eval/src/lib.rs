//! # traj-eval — the paper's experiments, reproduced
//!
//! One function per table/figure of *Meratnia & de By (EDBT 2004)* §4:
//!
//! * [`figures::table2`] — dataset statistics (Table 2);
//! * [`figures::fig7`] — NDP vs TD-TR, compression and error per
//!   threshold;
//! * [`figures::fig8`] — BOPW vs NOPW;
//! * [`figures::fig9`] — NOPW vs OPW-TR;
//! * [`figures::fig10`] — OPW-TR vs TD-SP(5) vs OPW-SP(5/15/25);
//! * [`figures::fig11`] — error versus compression across all
//!   algorithms.
//!
//! Beyond the paper, [`figures::fig_onepass`] compares the one-pass SED
//! family (OP-FIT / OP-CONE, Lin et al., arXiv 1801.05360) against NDP,
//! TD-TR and OPW-TR on the same grid. The name → algorithm table behind
//! `ALGORITHMS.md` is `traj_compress::catalog`.
//!
//! All experiments follow the paper's §4.3 protocol: ten trajectories
//! (the calibrated synthetic dataset of `traj-gen`), fifteen spatial
//! thresholds from 30 to 100 m, speed thresholds {5, 15, 25} m/s, the
//! time-synchronous error notion of §4.2, and per-threshold averages
//! over the ten trajectories.
//!
//! The `repro` binary prints each table/figure as aligned text and can
//! emit CSV series; [`report::check_expectations`] verifies the paper's
//! qualitative claims hold on the reproduction (who wins, roughly by how
//! much, where the curves coincide).

pub mod experiment;
pub mod extensions;
pub mod figures;
pub mod registry;
pub mod report;

pub use experiment::{
    sweep, sweep_algo, sweep_algo_parallel, AlgoSweep, SweepPoint, PAPER_SPEED_THRESHOLDS,
    PAPER_THRESHOLDS,
};
pub use registry::Algo;
pub use extensions::{
    class_datasets, class_signatures, interpolation_gap, noise_ablation, object_classes,
    online_spectrum, sampling_ablation,
};
pub use figures::{
    fig10, fig10_threaded, fig10_with, fig11, fig11_threaded, fig11_with, fig7, fig7_threaded,
    fig7_with, fig8, fig8_threaded, fig8_with, fig9, fig9_threaded, fig9_with, fig_onepass,
    fig_onepass_threaded, fig_onepass_with, table2, FigureData,
};
pub use report::{
    check_expectations, figure_to_csv, figure_to_markdown, format_figure, format_table2,
};
