//! `EXP-T2-EXAMPLE` — regenerate the Table II worked example (§IV-C2 /
//! §IV-D2): CSRIA deletes the individually-infrequent `<A,*,*>` and
//! `<A,B,*>` statistics and picks a 4-bit configuration without the A
//! attribute; CDIA folds them together (8% ≥ θ=5%) and recovers the true
//! optimal configuration A:1|B:1|C:2.

use amri_bench::{enforce_cli, table2_example};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "table2_example", &[]);
    let r = table2_example();
    println!("== Table II worked example (θ=5%, ε=0.1%, 4-bit IC) ==\n");
    println!("CSRIA frequent patterns:");
    for (p, f) in &r.csria_frequent {
        println!("  {p}  {:.1}%", f * 100.0);
    }
    println!("CDIA (random combination) frequent patterns:");
    for (p, f) in &r.cdia_frequent {
        println!("  {p}  {:.1}%", f * 100.0);
    }
    println!();
    println!("configuration from CSRIA statistics : {}", r.csria_config);
    println!("configuration from CDIA statistics  : {}", r.cdia_config);
    println!("true optimal configuration          : {}", r.optimal_config);
    println!();
    if r.cdia_config == r.optimal_config && r.csria_config != r.optimal_config {
        println!("reproduced: CDIA finds the true optimum, CSRIA does not.");
    } else {
        println!("WARNING: the worked example did not reproduce as described.");
        std::process::exit(1);
    }
}
