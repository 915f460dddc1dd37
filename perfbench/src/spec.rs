//! Emits a `WhyQuestion` as the human-writable `/v1/why` JSON body that
//! `wqe_core::spec::parse_question` reads. The program has a parser but
//! no writer; the benchmark needs one to send generated questions over
//! the wire.
//!
//! The spec names nodes and re-creates them in array order with the
//! focus first, so only queries whose live node ids are exactly
//! `0..n` with the focus at 0 can be written without renumbering; others
//! are refused (the generators filter them out).

use serde_json::{json, Map, Value};
use wqe_core::{Cell, Rhs, WhyQuestion};
use wqe_graph::{AttrValue, CmpOp, Graph};

fn op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Eq => "=",
        CmpOp::Ge => ">=",
        CmpOp::Gt => ">",
    }
}

fn value(v: &AttrValue) -> Result<Value, String> {
    Ok(match v {
        AttrValue::Int(i) => json!(*i),
        AttrValue::Float(f) => serde_json::Number::from_f64(*f)
            .map(Value::Number)
            .ok_or("non-finite float")?,
        // "?" and "_" are the spec's variable and wildcard markers.
        AttrValue::Str(s) if s == "?" || s == "_" => return Err(format!("string {s:?}")),
        AttrValue::Str(s) => json!(s),
        AttrValue::Bool(b) => json!(*b),
    })
}

/// The spec document for `q` (keys `query` and `exemplar`).
pub fn question_json(graph: &Graph, q: &WhyQuestion) -> Result<Value, String> {
    let schema = graph.schema();
    let query = &q.query;
    let ids: Vec<_> = query.node_ids().collect();
    if query.focus().0 != 0 || ids.iter().enumerate().any(|(i, u)| u.0 as usize != i) {
        return Err("query node ids are not 0..n with the focus first".into());
    }
    let mut nodes = Vec::with_capacity(ids.len());
    for &u in &ids {
        let node = query.node(u).ok_or("dangling node id")?;
        let mut n = Map::new();
        n.insert("id".into(), json!(format!("n{}", u.0)));
        if let Some(l) = node.label {
            n.insert("label".into(), json!(schema.label_name(l)));
        }
        if u == query.focus() {
            n.insert("focus".into(), json!(true));
        }
        let mut lits = Vec::with_capacity(node.literals.len());
        for l in &node.literals {
            lits.push(json!({
                "attr": schema.attr_name(l.attr),
                "op": op(l.op),
                "value": value(&l.value)?,
            }));
        }
        n.insert("literals".into(), Value::Array(lits));
        nodes.push(Value::Object(n));
    }
    let edges: Vec<Value> = query
        .edges()
        .iter()
        .map(|e| json!({ "from": format!("n{}", e.from.0), "to": format!("n{}", e.to.0), "bound": e.bound }))
        .collect();

    let mut tuples = Vec::with_capacity(q.exemplar.tuples.len());
    for t in &q.exemplar.tuples {
        let mut cells = Map::new();
        for (&a, cell) in &t.cells {
            let v = match cell {
                Cell::Const(v) => value(v)?,
                Cell::Var => json!("?"),
                Cell::Wildcard => json!("_"),
            };
            cells.insert(schema.attr_name(a).to_string(), v);
        }
        tuples.push(Value::Object(cells));
    }
    let mut constraints = Vec::with_capacity(q.exemplar.constraints.len());
    for c in &q.exemplar.constraints {
        let mut doc = Map::new();
        doc.insert(
            "lhs".into(),
            json!({ "tuple": c.lhs.tuple, "attr": schema.attr_name(c.lhs.attr) }),
        );
        doc.insert("op".into(), json!(op(c.op)));
        match &c.rhs {
            Rhs::Var(r) => {
                doc.insert(
                    "var".into(),
                    json!({ "tuple": r.tuple, "attr": schema.attr_name(r.attr) }),
                );
            }
            Rhs::Const(v) => {
                doc.insert("value".into(), value(v)?);
            }
        }
        constraints.push(Value::Object(doc));
    }
    Ok(json!({
        "query": { "max_bound": query.max_bound(), "nodes": nodes, "edges": edges },
        "exemplar": { "tuples": tuples, "constraints": constraints },
    }))
}

/// Emits `q` and parses it back with the program's own spec parser,
/// returning the document only when the parsed question is structurally
/// the original (same pattern, same exemplar). The answer-level half of
/// the round trip (equal report fingerprints) runs in the answer check.
pub fn emit_checked(graph: &Graph, q: &WhyQuestion) -> Result<Value, String> {
    let doc = question_json(graph, q)?;
    let parsed = wqe_core::spec::parse_question(graph, &doc).map_err(|e| e.to_string())?;
    if parsed.query != q.query || parsed.exemplar != q.exemplar {
        return Err("spec round trip changed the question".into());
    }
    Ok(doc)
}
