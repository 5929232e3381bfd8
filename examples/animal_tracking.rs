//! Wildlife telemetry: compressing tracks of a different nature.
//!
//! The paper's closing question (§5) — how do the techniques behave for
//! "moving objects of different nature"? — played out on a two-state
//! animal track (transit vs foraging, the standard movement-ecology
//! model). Collars are battery-bound, so the online OPW-SP stream is the
//! realistic deployment: the collar transmits only the kept fixes. We
//! compare thresholds, then archive the compressed track to disk via the
//! store.
//!
//! ```text
//! cargo run --release --example animal_tracking
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajc::compress::{evaluate, Compressor, OpeningWindow, TdTr};
use trajc::gen::{animal_track, AnimalParams};
use trajc::model::stats::TrajectoryStats;
use trajc::store::{save_dir, IngestMode, MovingObjectStore};

fn main() {
    // A day of 30 s fixes from a collared animal.
    let params = AnimalParams { steps: 2880, ..AnimalParams::default() };
    let track = animal_track(&params, &mut StdRng::seed_from_u64(11));
    let s = TrajectoryStats::of(&track);
    println!(
        "track: {} fixes over {}, {:.1} km, avg {:.2} m/s",
        s.n_points,
        s.duration,
        s.length_km(),
        s.avg_speed_ms
    );

    // Threshold guidance per the paper: sweep and look at the knee.
    println!("\n{:>8} {:>22} {:>22}", "ε (m)", "TD-TR comp%/err", "OPW-SP comp%/err");
    for eps in [5.0, 10.0, 25.0, 50.0] {
        let td = evaluate(&track, &TdTr::new(eps).compress(&track));
        let ow = evaluate(&track, &OpeningWindow::opw_sp(eps, 1.0).compress(&track));
        println!(
            "{:>8.0} {:>13.1}% {:>6.2}m {:>13.1}% {:>6.2}m",
            eps, td.compression_pct, td.avg_sync_err_m, ow.compression_pct, ow.avg_sync_err_m
        );
    }

    // Archive: ingest through the store with a 10 m budget and persist.
    let mut store = MovingObjectStore::new(IngestMode::OpwSp { eps: 10.0, speed_eps: 1.0 });
    store.insert_trajectory(1, &track).expect("valid track");
    let stats = store.stats();
    println!(
        "\narchived {} of {} fixes ({:.1}% saved)",
        stats.stored_points,
        stats.ingested_points,
        stats.compression_pct()
    );
    let dir = std::env::temp_dir().join("trajc_animal_archive");
    let written = save_dir(&store, &dir).expect("writable temp dir");
    println!("persisted {written} object file(s) under {}", dir.display());
}
