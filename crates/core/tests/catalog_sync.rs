//! Pins `ALGORITHMS.md` to the live catalog: the documentation table's
//! rows must list exactly the `algorithm_catalog()` entries, in order,
//! with the bound / complexity / streaming / reference cells matching
//! the machine-readable metadata (the streaming cell is "row has a
//! session constructor"). Editing either side alone fails here.

use traj_compress::algorithm_catalog;

/// One parsed row of the markdown table: the cells between pipes, with
/// code spans unwrapped.
struct Row {
    cli_name: String,
    criterion: String,
    bound: String,
    complexity: String,
    streaming: String,
    reference: String,
}

fn parse_table(doc: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<String> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        if cells.first().map(String::as_str) == Some("--algo") {
            in_table = true;
            continue;
        }
        if !in_table || cells.first().is_some_and(|c| c.starts_with("---")) {
            continue;
        }
        assert_eq!(cells.len(), 6, "table row with wrong cell count: {line:?}");
        let mut it = cells.into_iter();
        rows.push(Row {
            cli_name: it.next().unwrap(),
            criterion: it.next().unwrap(),
            bound: it.next().unwrap(),
            complexity: it.next().unwrap(),
            streaming: it.next().unwrap(),
            reference: it.next().unwrap(),
        });
    }
    rows
}

fn load_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ALGORITHMS.md");
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} — is ALGORITHMS.md missing?"))
}

#[test]
fn documented_table_matches_live_catalog() {
    let rows = parse_table(&load_doc());
    let catalog = algorithm_catalog();
    let documented: Vec<&str> = rows.iter().map(|r| r.cli_name.as_str()).collect();
    let registered: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(
        documented, registered,
        "ALGORITHMS.md rows and algorithm_catalog() entries differ \
         (names or order) — update whichever side is stale"
    );
    for (row, meta) in rows.iter().zip(catalog) {
        let name = meta.name;
        assert_eq!(row.criterion, meta.criterion, "{name}: criterion cell");
        assert_eq!(row.bound, meta.bound.as_str(), "{name}: bound cell");
        assert_eq!(row.complexity, meta.complexity, "{name}: complexity cell");
        let streaming = if meta.streams() { "yes" } else { "no" };
        assert_eq!(row.streaming, streaming, "{name}: streaming cell");
        assert_eq!(row.reference, meta.reference, "{name}: reference cell");
    }
}

#[test]
fn catalog_covers_the_one_pass_family() {
    let names: Vec<&str> = algorithm_catalog().iter().map(|m| m.name).collect();
    assert_eq!(names.len(), 15);
    assert!(names.contains(&"op-fit"));
    assert!(names.contains(&"op-cone"));
}
