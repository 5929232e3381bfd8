//! The algorithm registry: labeled, sweep-aware experiment entries.
//!
//! The experiment runner originally took a *factory* closure
//! `Fn(f64) -> Box<dyn Compressor>` and rebuilt + reran the compressor
//! per threshold. [`Algo`] generalizes that: an entry knows whether its
//! algorithm supports the one-pass multi-threshold sweep of
//! [`traj_compress::TopDown::sweep`] (the whole top-down family does) or
//! must be rebuilt per threshold (the online/window families, whose
//! anchor decisions genuinely depend on the threshold). Either way the
//! per-threshold results are byte-identical to constructing and running
//! the compressor separately at each threshold — the registry only
//! removes redundant work, never changes outputs.

use traj_compress::{CompressionResult, CompressionResultBuf, Compressor, TopDown, Workspace};
use traj_model::Trajectory;

/// How an [`Algo`] produces per-threshold results.
enum AlgoKind {
    /// Top-down family: one split-tree pass answers every threshold.
    TopDown(TopDown),
    /// Anything else: rebuild via the factory and compress per threshold.
    Factory(Box<dyn Fn(f64) -> Box<dyn Compressor> + Send + Sync>),
}

/// A labeled experiment algorithm, runnable over a threshold grid.
pub struct Algo {
    label: String,
    kind: AlgoKind,
}

impl std::fmt::Debug for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            AlgoKind::TopDown(_) => "top-down (one-pass sweep)",
            AlgoKind::Factory(_) => "factory (per-threshold)",
        };
        write!(f, "Algo({:?}, {kind})", self.label)
    }
}

impl Algo {
    /// Registers a top-down algorithm; the distance threshold of `td` is
    /// irrelevant (each sweep threshold replaces it), the criterion
    /// shape and any speed threshold are preserved.
    pub fn top_down(label: impl Into<String>, td: TopDown) -> Self {
        Algo { label: label.into(), kind: AlgoKind::TopDown(td) }
    }

    /// Registers an algorithm via a per-threshold factory.
    pub fn factory<F>(label: impl Into<String>, make: F) -> Self
    where
        F: Fn(f64) -> Box<dyn Compressor> + Send + Sync + 'static,
    {
        Algo { label: label.into(), kind: AlgoKind::Factory(Box::new(make)) }
    }

    /// The display label, e.g. `"TD-TR"` or `"OPW-SP(5m/s)"`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Compresses `traj` at every threshold, in threshold order,
    /// borrowing scratch space from `ws`. Results are byte-identical to
    /// running the algorithm separately per threshold.
    pub fn run(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        match &self.kind {
            AlgoKind::TopDown(td) => td.sweep_with(traj, thresholds, ws),
            AlgoKind::Factory(make) => {
                let mut out = CompressionResultBuf::new();
                thresholds
                    .iter()
                    .map(|&eps| {
                        make(eps).compress_into(traj, ws, &mut out);
                        out.take()
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_compress::{OpeningWindow, TdTr};

    fn traj() -> Trajectory {
        Trajectory::from_triples((0..80).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 9.0, ((i % 6) * (i % 4)) as f64 * 25.0)
        }))
        .unwrap()
    }

    #[test]
    fn top_down_entry_matches_factory_entry() {
        let t = traj();
        let grid = [10.0, 40.0, 90.0];
        let mut ws = Workspace::new();
        let fast = Algo::top_down("TD-TR", TopDown::time_ratio(0.0));
        let slow = Algo::factory("TD-TR", |e| Box::new(TdTr::new(e)));
        assert_eq!(fast.run(&t, &grid, &mut ws), slow.run(&t, &grid, &mut ws));
    }

    #[test]
    fn factory_entry_runs_window_algorithms() {
        let t = traj();
        let mut ws = Workspace::new();
        let a = Algo::factory("OPW-TR", |e| Box::new(OpeningWindow::opw_tr(e)));
        let rs = a.run(&t, &[20.0, 60.0], &mut ws);
        assert_eq!(rs.len(), 2);
        for (r, eps) in rs.iter().zip([20.0, 60.0]) {
            assert_eq!(r, &OpeningWindow::opw_tr(eps).compress(&t));
        }
    }

    #[test]
    fn labels_and_debug() {
        let a = Algo::top_down("NDP", TopDown::perpendicular(0.0));
        assert_eq!(a.label(), "NDP");
        assert!(format!("{a:?}").contains("one-pass"));
    }
}
