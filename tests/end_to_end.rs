//! Cross-crate integration tests: raw HTML in → consolidated answer out,
//! exercising extractor, index, mapper and consolidator together — plus
//! the umbrella-level surface of deadlines and hot engine reloads.

use wwt::engine::{Engine, EngineBuilder, QueryRequest};
use wwt::model::{Label, WwtError};

fn build(pages: &[String]) -> Engine {
    let mut b = EngineBuilder::new();
    b.add_documents(pages.iter().map(String::as_str));
    b.build()
}

fn currency_page(title: &str, rows: &[(&str, &str)], headers: bool) -> String {
    let mut body = String::new();
    if headers {
        body.push_str("<tr><th>Country</th><th>Currency</th></tr>");
    }
    for (c, m) in rows {
        body.push_str(&format!("<tr><td>{c}</td><td>{m}</td></tr>"));
    }
    format!(
        "<html><head><title>{title}</title></head><body>\
         <p>Reference list of countries and their currency</p>\
         <table>{body}</table></body></html>"
    )
}

#[test]
fn html_to_answer_pipeline() {
    let pages = vec![
        currency_page(
            "currencies A",
            &[("India", "Rupee"), ("Japan", "Yen"), ("France", "Euro")],
            true,
        ),
        currency_page(
            "currencies B",
            &[("India", "Rupee"), ("Brazil", "Real")],
            true,
        ),
        // A page with a form table only: contributes nothing.
        "<html><body><table><tr><td><form><input></form></td><td>go</td></tr>\
         <tr><td>x</td><td>y</td></tr></table></body></html>"
            .to_string(),
    ];
    let engine = build(&pages);
    assert_eq!(engine.store().len(), 2, "form table must be rejected");

    let out = engine
        .answer(&QueryRequest::parse("country | currency").unwrap())
        .unwrap();
    assert_eq!(out.table.q(), 2);
    assert_eq!(out.table.len(), 4, "4 distinct countries");
    let india = out
        .table
        .rows
        .iter()
        .find(|r| r.cells[0] == "India")
        .unwrap();
    assert_eq!(india.support, 2, "India merged across tables");
    assert_eq!(india.cells[1], "Rupee");
    // Merged rows rank above singletons.
    assert_eq!(out.table.rows[0].cells[0], "India");
}

#[test]
fn headerless_table_rescued_by_content_overlap() {
    let pages = vec![
        currency_page(
            "currencies",
            &[("India", "Rupee"), ("Japan", "Yen"), ("France", "Euro")],
            true,
        ),
        // Same content, no headers, no context keywords.
        "<html><body><table>\
         <tr><td>India</td><td>Rupee</td></tr>\
         <tr><td>Japan</td><td>Yen</td></tr>\
         <tr><td>Chile</td><td>Peso</td></tr>\
         </table></body></html>"
            .to_string(),
    ];
    let engine = build(&pages);
    let out = engine
        .answer(&QueryRequest::parse("country | currency").unwrap())
        .unwrap();
    // The headerless table's unique row surfaces only if the table was
    // mapped via collective inference.
    assert!(
        out.table.rows.iter().any(|r| r.cells[0] == "Chile"),
        "headerless table must contribute rows: {:?}",
        out.table.rows
    );
    let relevant = out
        .mapping
        .labelings
        .iter()
        .filter(|l| l.is_relevant())
        .count();
    assert_eq!(relevant, 2);
}

#[test]
fn swapped_columns_normalized_in_answer() {
    let pages = vec!["<html><body><p>currency list</p><table>\
         <tr><th>Currency</th><th>Country</th></tr>\
         <tr><td>Rupee</td><td>India</td></tr>\
         <tr><td>Yen</td><td>Japan</td></tr>\
         </table></body></html>"
        .to_string()];
    let engine = build(&pages);
    let out = engine
        .answer(&QueryRequest::parse("country | currency").unwrap())
        .unwrap();
    let lab = &out.mapping.labelings[0];
    assert_eq!(lab.labels, vec![Label::Col(1), Label::Col(0)]);
    // The answer puts country first regardless of source order.
    assert!(out
        .table
        .rows
        .iter()
        .any(|r| r.cells == vec!["India", "Rupee"]));
}

#[test]
fn deadlines_and_reloads_compose_through_the_umbrella() {
    use std::sync::Arc;
    use wwt::service::TableSearchService;

    let first = build(&[currency_page("A", &[("India", "Rupee")], true)]);
    let service = TableSearchService::new(Arc::new(first));

    // In-process deadline surface: a zero budget fails typed, a generous
    // one answers like no deadline at all.
    let req = QueryRequest::parse("country | currency").unwrap();
    assert!(matches!(
        service.answer(&req.clone().deadline_ms(0)),
        Err(WwtError::DeadlineExceeded(_))
    ));
    let plain = service.answer(&req).unwrap();
    let budgeted = service.answer(&req.clone().deadline_ms(60_000)).unwrap();
    assert_eq!(plain.table, budgeted.table);

    // Hot swap: the next answer reflects the rebuilt corpus.
    let second = build(&[currency_page(
        "B",
        &[("India", "Rupee"), ("Brazil", "Real")],
        true,
    )]);
    assert_eq!(service.reload(Arc::new(second)), 1);
    let swapped = service.answer(&req).unwrap();
    assert!(swapped.table.rows.iter().any(|r| r.cells[0] == "Brazil"));
    let stats = service.stats();
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.deadline_exceeded, 1);
}

#[test]
fn single_column_query_returns_entity_list() {
    let pages = vec!["<html><body><h2>Dog breeds of the world</h2><table>\
         <tr><th>Dog breed</th><th>Size</th></tr>\
         <tr><td>Husky</td><td>Large</td></tr>\
         <tr><td>Beagle</td><td>Medium</td></tr>\
         </table></body></html>"
        .to_string()];
    let engine = build(&pages);
    let out = engine
        .answer(&QueryRequest::parse("dog breed").unwrap())
        .unwrap();
    assert_eq!(out.table.q(), 1);
    assert_eq!(out.table.len(), 2);
    let names: Vec<&str> = out.table.rows.iter().map(|r| r.cells[0].as_str()).collect();
    assert!(names.contains(&"Husky") && names.contains(&"Beagle"));
}
