//! The paper's Figure 1 scenario: the query
//! `"name of explorers | nationality | areas explored"` against three web
//! tables — a clean one, one with swapped columns and a noisy second
//! header row, and an irrelevant "Forest reserves" table whose context
//! mentions "exploration".
//!
//! Run with: `cargo run --example explorers`

use wwt::engine::{EngineBuilder, QueryRequest};
use wwt::model::Query;

fn main() {
    let pages = [
        // Web Table 1: clean, with a split header in column 3.
        r#"<html><head><title>List of explorers - encyclopedia</title></head><body>
           <p>This article lists the explorations in history.</p>
           <table>
             <tr><th>Name</th><th>Nationality</th><th>Main areas</th></tr>
             <tr><th></th><th></th><th>explored</th></tr>
             <tr><td>Abel Tasman</td><td>Dutch</td><td>Oceania</td></tr>
             <tr><td>Vasco da Gama</td><td>Portuguese</td><td>Sea route to India</td></tr>
             <tr><td>Alexander Mackenzie</td><td>British</td><td>Canada</td></tr>
           </table></body></html>"#
            .to_string(),
        // Web Table 2: reversed column order, "(Chronological order)" noise
        // header, missing nationality.
        r#"<html><body><h3>Exploration timeline</h3>
           <table>
             <tr><th>Exploration</th><th>Who (explorer)</th></tr>
             <tr><th>(Chronological order)</th><th></th></tr>
             <tr><td>Sea route to India</td><td>Vasco da Gama</td></tr>
             <tr><td>Caribbean</td><td>Christopher Columbus</td></tr>
             <tr><td>Oceania</td><td>Abel Tasman</td></tr>
           </table></body></html>"#
            .to_string(),
        // Web Table 3: irrelevant despite "exploration" in its context.
        r#"<html><head><title>Other Formal Reserves</title></head><body>
           <p>Forest Reserves under the Forestry Act 1920.</p>
           <p>All areas will be available for mineral exploration and mining.</p>
           <table>
             <tr><td colspan="3"><b>Forest reserves</b></td></tr>
             <tr><th>ID</th><th>Name</th><th>Area</th></tr>
             <tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
             <tr><td>9</td><td>Plains Creek</td><td>880</td></tr>
             <tr><td>13</td><td>Welcome Swamp</td><td>168</td></tr>
           </table></body></html>"#
            .to_string(),
    ];

    let mut builder = EngineBuilder::new();
    builder.add_documents(pages.iter().map(String::as_str));
    let engine = builder.build();
    let query = Query::parse("name of explorers | nationality | areas explored").unwrap();
    let out = engine.answer(&QueryRequest::new(query.clone())).unwrap();

    println!("query: {query}\n");
    for (i, lab) in out.mapping.labelings.iter().enumerate() {
        let t = engine.store().get(out.candidates[i]).unwrap();
        println!(
            "{} ({}): relevance {:.2}",
            out.candidates[i],
            t.title.as_deref().unwrap_or("untitled"),
            out.mapping.table_relevance[i]
        );
        if let Some(h) = t.headers.first() {
            println!("  headers: {h:?}");
        }
        println!(
            "  labels : {:?}",
            lab.labels.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        );
    }
    println!("\nconsolidated answer (dedup across tables, ranked by support):");
    println!("{}", out.table.render(28));
}
