//! `report` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```sh
//! cargo run --release -p sqo-bench --bin report             # everything
//! cargo run --release -p sqo-bench --bin report -- table42  # one experiment
//! cargo run --release -p sqo-bench --bin report -- fig41 --seed 7
//! cargo run --release -p sqo-bench --bin report -- --smoke --json out.json
//! ```

use std::env;
use std::sync::Arc;

use sqo_bench::Headline;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--smoke" => smoke = true,
            "--json" => {
                json_path =
                    Some(it.next().cloned().unwrap_or_else(|| die("--json needs a file path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: report [e1|table41|fig41|table42|e5|grouping|budget|closure|e9|e10|\
                     e11|e12|e13|e14|e15|all]* [--seed N] [--smoke] [--json PATH]\n\n\
                     --smoke      run every experiment at minimal repetition counts; exercises\n\
                     \x20            the full harness in well under a second so CI catches rot\n\
                     --json PATH  also write every experiment's headline numbers as JSON"
                );
                return;
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = [
            "e1", "table41", "fig41", "table42", "e5", "grouping", "budget", "closure", "e9",
            "e10", "e11", "e12", "e13", "e14", "e15",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    // Figure 4.1's timing repetitions dominate the run; the smoke path
    // keeps every driver on its real code path but minimizes repetition.
    let fig41_reps = if smoke { 2 } else { 20 };
    println!(
        "sqo experiment report — Pang, Lu & Ooi, ICDE 1991 (seed {seed}{})\n\
         ================================================================\n",
        if smoke { ", smoke" } else { "" }
    );
    let mut headlines: Vec<Headline> = Vec::new();
    for exp in &selected {
        match exp.as_str() {
            "e1" => e1(),
            "table41" => {
                let (h, s) = sqo_bench::table41(seed);
                headlines.extend(h);
                println!("{s}");
            }
            "fig41" => {
                let (points, s) = sqo_bench::figure41(seed, fig41_reps);
                headlines.extend(sqo_bench::fig41_headlines(&points));
                println!("{s}");
            }
            "table42" => {
                let (rows, s) = sqo_bench::table42(seed);
                headlines.extend(sqo_bench::table42_headlines(&rows));
                println!("{s}");
            }
            "e5" => {
                let (h, s) = sqo_bench::baseline_comparison(seed);
                headlines.extend(h);
                println!("{s}");
            }
            "grouping" => {
                let (h, s) = sqo_bench::grouping(seed);
                headlines.extend(h);
                println!("{s}");
            }
            "budget" => {
                let (h, s) = sqo_bench::budget_sweep(seed);
                headlines.extend(h);
                println!("{s}");
            }
            "closure" => {
                let (h, s) = sqo_bench::closure_ablation(seed);
                headlines.extend(h);
                println!("{s}");
            }
            "e9" | "service" => {
                let (rows, s) = sqo_bench::service_throughput(seed, smoke);
                headlines.extend(sqo_bench::e9_headlines(&rows));
                println!("{s}");
            }
            "e10" | "coldpath" => {
                let (row, s) = sqo_bench::cold_path_latency(seed, smoke);
                headlines.extend(sqo_bench::e10_headlines(&row));
                println!("{s}");
            }
            "e11" | "mutable" => {
                let (rows, s) = sqo_bench::mutable_serving(seed, smoke);
                headlines.extend(sqo_bench::e11_headlines(&rows));
                println!("{s}");
            }
            "e12" | "writepath" => {
                let (h, s) = sqo_bench::write_path_scaling(seed, smoke);
                headlines.extend(h);
                println!("{s}");
            }
            "e13" | "warmstart" => {
                let (h, s) = sqo_bench::warm_start_boot(seed, smoke);
                headlines.extend(h);
                println!("{s}");
            }
            "e14" | "frontend" => {
                let (h, s) = sqo_bench::frontend_open_loop(seed, smoke);
                headlines.extend(h);
                println!("{s}");
            }
            "e15" | "costing" => {
                let (h, s) = sqo_bench::cold_optimize_plan(seed, smoke);
                headlines.extend(h);
                println!("{s}");
            }
            other => die(&format!("unknown experiment `{other}`")),
        }
    }
    if let Some(path) = json_path {
        let json = sqo_bench::render_json(seed, smoke, &headlines);
        if let Err(e) = std::fs::write(&path, json) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("headlines: wrote {} metric(s) to {path}", headlines.len());
    }
    if smoke {
        println!("smoke: {} experiment(s) completed", selected.len());
    }
}

/// E1: the Figure 2.3 / §3.5 worked example, step by step.
fn e1() {
    use sqo_catalog::example::figure21;
    use sqo_constraints::{figure22, ConstraintStore, StoreOptions};
    use sqo_core::{
        run_transformations, OptimizerConfig, SemanticOptimizer, StructuralOracle,
        TransformationTable,
    };
    use sqo_query::{parse_query, QueryExt};

    let catalog = Arc::new(figure21().expect("schema"));
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        figure22(&catalog).expect("constraints"),
        StoreOptions { materialize_closure: false, ..StoreOptions::paper_defaults() },
    )
    .expect("store");
    let query = parse_query(
        r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
            {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
            {collects, supplies} {supplier, cargo, vehicle})"#,
        &catalog,
    )
    .expect("query");
    println!("E1: the §3.5 worked example");
    println!("sample query:\n  {}\n", query.display(&catalog));
    let relevant = store.relevant_for(&query);
    let config = OptimizerConfig::paper();
    let mut table =
        TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
    println!("Step 1 — initialization:\n{}", table.render(&catalog, &store));
    let log = run_transformations(&mut table, &config);
    println!("Step 2 — transformations:");
    for t in &log.applied {
        println!("  [{:?}] {} -> {}", t.kind, t.predicate.display(&catalog), t.to);
    }
    println!("\nfinal table:\n{}", table.render(&catalog, &store));
    let optimizer = SemanticOptimizer::new(&store);
    let out = optimizer.optimize(&query, &StructuralOracle).expect("optimize");
    println!("Step 3 — formulated query:\n  {}\n", out.query.display(&catalog));
}

fn die(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(2)
}
