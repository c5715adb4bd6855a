//! Using WWT on your own documents: index a handful of pages about black
//! metal bands — including the paper's §3.2.1 case where the query phrase
//! "black metal" never appears in a header, only in the *body* of a genre
//! column — and inspect how the segmented similarity exploits it.
//!
//! Run with: `cargo run --example custom_corpus`

use wwt::core::features::{seg_sim, QueryView};
use wwt::core::{MapperConfig, TableView};
use wwt::engine::{EngineBuilder, QueryRequest};
use wwt::model::Query;

fn main() {
    let pages = [
        // The paper's example: headers "Band name | Country | Genre", no
        // context; "Black metal" appears only as frequent body content.
        r#"<html><body><table>
             <tr><th>Band name</th><th>Country</th><th>Genre</th></tr>
             <tr><td>Mayhem</td><td>Norway</td><td>Black metal</td></tr>
             <tr><td>Burzum</td><td>Norway</td><td>Black metal</td></tr>
             <tr><td>Marduk</td><td>Sweden</td><td>Black metal</td></tr>
             <tr><td>Immortal</td><td>Norway</td><td>Black metal</td></tr>
           </table></body></html>"#
            .to_string(),
        r#"<html><head><title>Extreme metal encyclopedia</title></head><body>
           <h2>Black metal bands by country of origin</h2>
           <table>
             <tr><th>Band</th><th>Country</th></tr>
             <tr><td>Mayhem</td><td>Norway</td></tr>
             <tr><td>Rotting Christ</td><td>Greece</td></tr>
           </table></body></html>"#
            .to_string(),
    ];

    let mut builder = EngineBuilder::new();
    builder.add_documents(pages.iter().map(String::as_str));
    let engine = builder.build();
    let query = Query::parse("black metal bands | country").unwrap();

    // Peek at the segmented similarity for the headerless-phrase case.
    let cfg = MapperConfig::default();
    let stats = engine.index().stats();
    let qv = QueryView::new(&query, stats);
    let t0 = engine.store().iter().next().unwrap();
    let view = TableView::new(t0, stats, cfg.body_freq_frac);
    println!("SegSim of Q1 = \"black metal bands\" against table 1's columns:");
    for c in 0..t0.n_cols() {
        println!(
            "  column {c} ({:?}): {:.3}",
            t0.header(0, c),
            seg_sim(&qv.columns[0], &view, c, &cfg)
        );
    }
    println!("(column 0 wins: \"bands\" pins the header, \"black metal\" is");
    println!(" supported by frequent body content in the genre column — §3.2.1)\n");

    let out = engine.answer(&QueryRequest::new(query)).unwrap();
    println!("answer:\n{}", out.table.render(24));
}
