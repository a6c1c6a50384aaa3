//! Prints the paper's tables and figures from the [`teccl_bench::TABLES`]
//! registry: every entry at its quick arguments by default,
//! `--only fig1,table4,…` for a subset, `--full` for the larger sweeps.
//! Exits non-zero when a name is unknown or any printed row is labelled
//! `(ITER-LIMIT)` (an uncertified incumbent).
use teccl_bench::{print_table, select_tables, ITER_LIMIT_MARK};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (tables, full) = select_tables(&args).unwrap_or_else(|msg| {
        eprintln!("run_all_experiments: {msg}");
        std::process::exit(2);
    });
    let mut uncertified = Vec::new();
    for table in tables {
        let rows = table.rows(full);
        print_table(table.title, table.label_headers, table.value_headers, &rows);
        uncertified.extend(
            rows.iter()
                .filter(|r| r.hit_iteration_limit())
                .map(|r| format!("{}: {}", table.name, r.labels.join(", "))),
        );
    }
    if !uncertified.is_empty() {
        eprintln!("\nrows marked {ITER_LIMIT_MARK} rest on an uncertified incumbent (simplex budget hit):");
        for row in &uncertified {
            eprintln!("  {row}");
        }
        std::process::exit(1);
    }
}
