//! The algorithm catalog: the one table that maps an `--algo` name to
//! a compressor.
//!
//! Every consumer resolves names here: `trajc compress --algo`,
//! `trajc serve --algo`, the experiment harness and the store's ingest
//! mode. `ALGORITHMS.md` is pinned to the same rows cell by cell
//! (`crates/core/tests/catalog_sync.rs`). A row carries its
//! documentation cells, a batch constructor and, for the online
//! families, a session constructor returning a [`CodecSpec`]. Both
//! constructors receive thresholds the row has already validated, so
//! neither can panic on user input.
//!
//! ```
//! use traj_compress::catalog;
//!
//! let td = catalog::compressor("td-tr", 30.0, None).unwrap();
//! assert!(td.name().starts_with("td-tr"));
//! // Online rows also run as ingest sessions; batch rows do not.
//! assert!(catalog::codec("op-cone", 30.0, None).is_ok());
//! assert!(catalog::codec("td-tr", 30.0, None).is_err());
//! // Speed-blended rows need a finite, positive speed threshold.
//! assert!(catalog::compressor("opw-sp", 30.0, Some(0.0)).is_err());
//! ```

use crate::streaming::CodecSpec;
use crate::{
    BottomUp, Compressor, DeadReckoning, DistanceThreshold, DouglasPeucker, HullDouglasPeucker,
    OnePassCone, OnePassFit, OpeningWindow, SlidingWindow, TdSp, TdTr, UniformSample,
};

/// How tightly a compressor's declared threshold bounds the error of its
/// output, under the algorithm's *own* criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorBound {
    /// Every dropped point provably satisfies the declared threshold
    /// against the kept segment that covers it.
    Strict,
    /// The threshold steers per-point decisions but the error of the
    /// final kept subsequence may exceed it.
    Heuristic,
    /// The parameter is not an error threshold at all (e.g. a sampling
    /// step).
    None,
}

impl ErrorBound {
    /// The catalog-table cell text: `strict` / `heuristic` / `none`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorBound::Strict => "strict",
            ErrorBound::Heuristic => "heuristic",
            ErrorBound::None => "none",
        }
    }
}

/// A batch constructor over validated `(eps, speed_eps)`; `speed_eps`
/// is `0.0` for rows without a speed threshold.
type Batch = fn(f64, f64) -> Box<dyn Compressor + Send + Sync>;

/// A session constructor over validated `(eps, speed_eps)`.
type Session = fn(f64, f64) -> CodecSpec;

/// One row of the catalog.
#[derive(Debug)]
pub struct AlgoMeta {
    /// The canonical `--algo` name.
    pub name: &'static str,
    /// Further `--algo` names for the same row.
    pub aliases: &'static [&'static str],
    /// The discarding criterion, in one phrase.
    pub criterion: &'static str,
    /// Whether the declared threshold is a strict bound on the output.
    pub bound: ErrorBound,
    /// Asymptotic time complexity (worst case unless noted).
    pub complexity: &'static str,
    /// Where the algorithm comes from.
    pub reference: &'static str,
    /// Whether the row also takes a speed-difference threshold
    /// (`--speed-eps`, m/s).
    pub speed: bool,
    batch: Batch,
    session: Option<Session>,
}

impl AlgoMeta {
    /// Whether the row runs record-at-a-time as an ingest session.
    pub fn streams(&self) -> bool {
        self.session.is_some()
    }

    /// The row's one threshold rule: `eps` finite and ≥ 0; for
    /// speed-blended rows a `speed_eps` that is finite and > 0 (other
    /// rows ignore it).
    fn thresholds(&self, eps: f64, speed_eps: Option<f64>) -> Result<(f64, f64), String> {
        if !eps.is_finite() || eps < 0.0 {
            return Err(format!("{}: --eps must be finite and >= 0, got {eps}", self.name));
        }
        if !self.speed {
            return Ok((eps, 0.0));
        }
        match speed_eps {
            Some(v) if v.is_finite() && v > 0.0 => Ok((eps, v)),
            Some(v) => Err(format!("{}: --speed-eps must be finite and > 0, got {v}", self.name)),
            None => Err(format!("algorithm {:?} needs --speed-eps", self.name)),
        }
    }

    /// Builds the batch compressor.
    ///
    /// # Errors
    /// Thresholds outside the row's rule.
    pub fn compressor(
        &self,
        eps: f64,
        speed_eps: Option<f64>,
    ) -> Result<Box<dyn Compressor + Send + Sync>, String> {
        let (eps, speed_eps) = self.thresholds(eps, speed_eps)?;
        Ok((self.batch)(eps, speed_eps))
    }

    /// The ingest-session codec spec.
    ///
    /// # Errors
    /// Batch-only rows, and thresholds outside the row's rule.
    pub fn codec(&self, eps: f64, speed_eps: Option<f64>) -> Result<CodecSpec, String> {
        let Some(session) = self.session else {
            return Err(format!(
                "{:?} needs the whole trajectory and cannot run as an ingest session \
                 (session algorithms: {RAW} {})",
                self.name,
                session_names().join(" ")
            ));
        };
        let (eps, speed_eps) = self.thresholds(eps, speed_eps)?;
        Ok(session(eps, speed_eps))
    }
}

/// The session name of the pass-through codec ([`CodecSpec::Raw`]): no
/// compression, so it has no catalog row.
pub const RAW: &str = "raw";

/// Every registered compressor, in the order `ALGORITHMS.md` documents
/// them.
pub fn algorithm_catalog() -> &'static [AlgoMeta] {
    CATALOG
}

/// The row whose name or alias is `name`.
fn find(name: &str) -> Result<&'static AlgoMeta, String> {
    CATALOG
        .iter()
        .find(|m| m.name == name || m.aliases.contains(&name))
        .ok_or_else(|| format!("unknown algorithm {name:?}"))
}

/// Builds the batch compressor `name` (see [`AlgoMeta::compressor`]).
///
/// # Errors
/// Unknown names and thresholds outside the row's rule.
pub fn compressor(
    name: &str,
    eps: f64,
    speed_eps: Option<f64>,
) -> Result<Box<dyn Compressor + Send + Sync>, String> {
    find(name)?.compressor(eps, speed_eps)
}

/// Resolves an ingest-session name: [`RAW`] or a streaming row (see
/// [`AlgoMeta::codec`]).
///
/// # Errors
/// Unknown and batch-only names, and thresholds outside the row's rule.
pub fn codec(name: &str, eps: f64, speed_eps: Option<f64>) -> Result<CodecSpec, String> {
    if name == RAW {
        return Ok(CodecSpec::Raw);
    }
    find(name)?.codec(eps, speed_eps)
}

fn session_names() -> Vec<&'static str> {
    CATALOG.iter().filter(|m| m.streams()).map(|m| m.name).collect()
}

const CATALOG: &[AlgoMeta] = &[
    AlgoMeta {
        name: "uniform",
        aliases: &[],
        criterion: "keep every i-th point",
        bound: ErrorBound::None,
        complexity: "O(n)",
        reference: "Tobler; paper §2",
        speed: false,
        batch: |eps, _| Box::new(UniformSample::new(eps.round().max(1.0) as usize)),
        session: None,
    },
    AlgoMeta {
        name: "dist",
        aliases: &[],
        criterion: "distance to last kept point",
        bound: ErrorBound::None,
        complexity: "O(n)",
        reference: "paper §2",
        speed: false,
        batch: |eps, _| Box::new(DistanceThreshold::new(eps)),
        session: None,
    },
    AlgoMeta {
        name: "ndp",
        aliases: &["dp", "douglas-peucker"],
        criterion: "perpendicular distance (top-down split)",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "Douglas & Peucker; paper §2.1",
        speed: false,
        batch: |eps, _| Box::new(DouglasPeucker::new(eps)),
        session: None,
    },
    AlgoMeta {
        name: "ndp-hull",
        aliases: &[],
        criterion: "perpendicular distance (hull-accelerated split)",
        bound: ErrorBound::Strict,
        complexity: "O(n log n) expected",
        reference: "Hershberger & Snoeyink [17]",
        speed: false,
        batch: |eps, _| Box::new(HullDouglasPeucker::new(eps)),
        session: None,
    },
    AlgoMeta {
        name: "td-tr",
        aliases: &[],
        criterion: "synchronized (time-ratio) distance, top-down",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §3.2",
        speed: false,
        batch: |eps, _| Box::new(TdTr::new(eps)),
        session: None,
    },
    AlgoMeta {
        name: "td-sp",
        aliases: &[],
        criterion: "SED + derived-speed difference, top-down",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §4.3",
        speed: true,
        batch: |eps, v| Box::new(TdSp::new(eps, v)),
        session: None,
    },
    AlgoMeta {
        name: "nopw",
        aliases: &[],
        criterion: "perpendicular distance, opening window",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §2.2",
        speed: false,
        batch: |eps, _| Box::new(OpeningWindow::nopw(eps)),
        session: Some(|eps, _| CodecSpec::Nopw { eps }),
    },
    AlgoMeta {
        name: "bopw",
        aliases: &[],
        criterion: "perpendicular distance, opening window (cut before float)",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §2.2",
        speed: false,
        batch: |eps, _| Box::new(OpeningWindow::bopw(eps)),
        session: Some(|eps, _| CodecSpec::Bopw { eps }),
    },
    AlgoMeta {
        name: "opw-tr",
        aliases: &[],
        criterion: "synchronized (time-ratio) distance, opening window",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §3.3",
        speed: false,
        batch: |eps, _| Box::new(OpeningWindow::opw_tr(eps)),
        session: Some(|eps, _| CodecSpec::OpwTr { eps }),
    },
    AlgoMeta {
        name: "opw-sp",
        aliases: &[],
        criterion: "SED + derived-speed difference, opening window",
        bound: ErrorBound::Strict,
        complexity: "O(n²) worst",
        reference: "paper §3.3 (SPT)",
        speed: true,
        batch: |eps, v| Box::new(OpeningWindow::opw_sp(eps, v)),
        session: Some(|eps, speed_eps| CodecSpec::OpwSp { eps, speed_eps }),
    },
    AlgoMeta {
        name: "dead-reckoning",
        aliases: &["dr"],
        criterion: "dead-reckoned prediction error",
        bound: ErrorBound::Heuristic,
        complexity: "O(n)",
        reference: "Wolfson et al.; DESIGN.md extension",
        speed: false,
        batch: |eps, _| Box::new(DeadReckoning::new(eps)),
        session: None,
    },
    AlgoMeta {
        name: "bottom-up",
        aliases: &[],
        criterion: "cheapest-merge criterion deviation",
        bound: ErrorBound::Strict,
        complexity: "O(n log n) heap ops, O(span) re-eval",
        reference: "Keogh et al.; paper §2",
        speed: false,
        batch: |eps, _| Box::new(BottomUp::time_ratio(eps)),
        session: None,
    },
    AlgoMeta {
        name: "sliding-window",
        aliases: &[],
        criterion: "synchronized distance in a fixed window",
        bound: ErrorBound::Strict,
        complexity: "O(n·w²) worst",
        reference: "Keogh et al.; paper §2",
        speed: false,
        batch: |eps, _| Box::new(SlidingWindow::time_ratio(eps, 32)),
        session: None,
    },
    AlgoMeta {
        name: "op-fit",
        aliases: &[],
        criterion: "SED via rectangular velocity fitting region",
        bound: ErrorBound::Strict,
        complexity: "O(n)",
        reference: "Lin et al., arXiv 1801.05360 (OPERB)",
        speed: false,
        batch: |eps, _| Box::new(OnePassFit::new(eps)),
        session: Some(|eps, _| CodecSpec::OpFit { eps }),
    },
    AlgoMeta {
        name: "op-cone",
        aliases: &[],
        criterion: "SED via inscribed-polygon velocity region",
        bound: ErrorBound::Strict,
        complexity: "O(n·m), m directions",
        reference: "Lin et al., arXiv 1801.05360 (CISED)",
        speed: false,
        batch: |eps, _| Box::new(OnePassCone::new(eps)),
        session: Some(|eps, _| CodecSpec::OpCone { eps }),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::OPW_SESSION_MAX_WINDOW;
    use traj_model::{Fix, Trajectory};

    /// A wiggly car-like track, shorter than a session window.
    fn traj() -> Trajectory {
        Trajectory::from_triples((0..OPW_SESSION_MAX_WINDOW - 4).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 9.0, ((i % 6) * (i % 4)) as f64 * 25.0)
        }))
        .unwrap()
    }

    #[test]
    fn every_row_resolves_compresses_and_streams_like_its_batch_form() {
        let t = traj();
        let mut names: Vec<&str> = vec![RAW];
        for meta in algorithm_catalog() {
            names.push(meta.name);
            names.extend(meta.aliases);
            for alias in std::iter::once(&meta.name).chain(meta.aliases) {
                assert_eq!(find(alias).unwrap().name, meta.name);
            }
            let batch = meta.compressor(30.0, Some(5.0)).unwrap().compress(&t);
            assert_eq!(batch.original_len(), t.len(), "{}", meta.name);
            match meta.codec(30.0, Some(5.0)) {
                Ok(spec) => {
                    let mut session = spec.build();
                    let mut kept = Vec::new();
                    for fix in t.fixes() {
                        session.push_into(*fix, &mut kept).unwrap();
                    }
                    kept.extend(session.finish());
                    let expected: Vec<Fix> =
                        batch.kept().iter().map(|&i| t.fixes()[i]).collect();
                    assert_eq!(kept, expected, "{}: session differs from batch", meta.name);
                }
                Err(e) => assert!(!meta.streams(), "{}: {e}", meta.name),
            }
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name or alias is registered twice");
        assert!(find("warp-drive").unwrap_err().contains("warp-drive"));
        assert_eq!(codec(RAW, 30.0, None), Ok(CodecSpec::Raw));
    }

    #[test]
    fn speed_rows_need_a_finite_positive_speed_threshold() {
        for meta in algorithm_catalog() {
            for bad in [None, Some(0.0), Some(-1.0), Some(f64::NAN), Some(f64::INFINITY)] {
                let name = meta.name;
                assert_eq!(meta.compressor(30.0, bad).is_ok(), !meta.speed, "{name} {bad:?}");
                if meta.streams() {
                    assert_eq!(meta.codec(30.0, bad).is_ok(), !meta.speed, "{name} {bad:?}");
                }
            }
            assert!(meta.compressor(30.0, Some(0.5)).is_ok(), "{}", meta.name);
            for eps in [-1.0, f64::NAN, f64::INFINITY] {
                assert!(meta.compressor(eps, Some(5.0)).is_err(), "{} eps {eps}", meta.name);
            }
        }
        assert_eq!(
            codec("opw-sp", 25.0, Some(5.0)),
            Ok(CodecSpec::OpwSp { eps: 25.0, speed_eps: 5.0 })
        );
    }

    #[test]
    fn streaming_rows_are_the_online_families() {
        let streaming: Vec<&str> =
            algorithm_catalog().iter().filter(|m| m.streams()).map(|m| m.name).collect();
        assert_eq!(streaming, ["nopw", "bopw", "opw-tr", "opw-sp", "op-fit", "op-cone"]);
        let err = codec("td-tr", 30.0, None).unwrap_err();
        assert!(err.contains("op-cone") && err.contains(RAW), "{err}");
    }
}
