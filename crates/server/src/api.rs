//! Request/response schemas, routing, and content negotiation.
//!
//! The default wire format is JSON. The clean request body is
//!
//! ```json
//! {
//!   "csv": "id,lang\n1,eng\n",            // CSV ingest…
//!   "columns": ["id", "lang"],            // …or explicit columns + rows
//!   "rows": [[1, "eng"], [2, "English"]],
//!   "config": {"threads": 1},             // optional partial CleanerConfig
//!   "include_rows": true                  // optional: typed rows in the response
//! }
//! ```
//!
//! and the response carries the cleaned table (CSV always, typed JSON rows
//! on request), the applied ops with their SQL, the run notes, and the full
//! commented SQL script — the paper's Figure 5 artifact over HTTP.
//!
//! `POST /v1/clean` and `POST /v1/jobs` additionally accept a **raw CSV
//! body** (`Content-Type: text/csv`): the worker feeds the framed body to
//! [`cocoon_table::csv::CsvStream`] — no JSON envelope to build, escape or
//! parse, chunked-transfer friendly, and the table is byte-identical to
//! what the JSON `"csv"` field would have produced. Symmetrically,
//! `Accept: text/csv` on `/v1/clean` returns just the cleaned table as
//! `text/csv` instead of the JSON report.

use crate::http::{json_escape, Request, Response};
use crate::jobs::{DeleteOutcome, JobStatus};
use crate::metrics::Counter;
use crate::reviews::{AcceptOutcome, RejectOutcome};
use crate::server::AppState;
use cocoon_core::{CleanerConfig, CleaningRun, ProgressSnapshot};
use cocoon_llm::{Json, LlmError};
use cocoon_table::csv::{self, CsvStream};
use cocoon_table::{json as table_json, Table};

/// A parsed, validated clean request — what travels through the job queue.
#[derive(Clone)]
pub struct CleanPayload {
    /// The ingested dirty table.
    pub table: Table,
    /// Effective pipeline configuration (defaults overlaid with the
    /// request's partial `"config"`, `threads` capped at the machine's
    /// available parallelism).
    pub config: CleanerConfig,
    /// Whether the response should embed typed JSON rows.
    pub include_rows: bool,
}

/// Parses and validates a clean request body. Errors are client errors
/// (400) phrased for the response's `"error"` field.
pub fn parse_clean_payload(body: &[u8]) -> Result<CleanPayload, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    // The parser words its errors for model responses; a client is told
    // only what failed and at which byte of its body.
    let json = cocoon_llm::json::parse(text).map_err(|err| match err {
        LlmError::Malformed { detail, .. } => format!("invalid json: {detail}"),
        other => format!("invalid json: {other}"),
    })?;
    let Some(members) = json.as_object() else {
        return Err("request body must be a JSON object".to_string());
    };
    for key in members.keys() {
        if !matches!(key.as_str(), "csv" | "columns" | "rows" | "config" | "include_rows") {
            return Err(format!("unknown request field \"{key}\""));
        }
    }

    let table = match (json.get("csv"), json.get("columns"), json.get("rows")) {
        (Some(Json::String(text)), None, None) => {
            csv::read_str(text).map_err(|e| format!("invalid csv: {e}"))?
        }
        (None, Some(columns), Some(rows)) => table_from_json(columns, rows)?,
        (Some(_), _, _) => return Err("\"csv\" must be a string without columns/rows".to_string()),
        _ => return Err("provide either \"csv\" or \"columns\" + \"rows\"".to_string()),
    };
    if table.height() == 0 {
        return Err("table has no rows".to_string());
    }

    let mut config = match json.get("config") {
        Some(config) => CleanerConfig::from_json(config).map_err(|e| e.to_string())?,
        None => CleanerConfig::default(),
    };
    // Every pipeline fan-out (prompt wave, census fill, FD scoring) starts
    // up to `threads` scoped threads, and output is byte-identical at any
    // count, so a request gets at most the cores.
    config.threads = config.threads.map(|threads| threads.min(threadpool::default_threads()));
    let include_rows = match json.get("include_rows") {
        Some(Json::Bool(b)) => *b,
        Some(other) => return Err(format!("\"include_rows\" must be a boolean, got {other}")),
        None => false,
    };
    Ok(CleanPayload { table, config, include_rows })
}

/// Builds a table from `"columns"` + `"rows"` JSON. Cells are rendered to
/// text and ingested exactly like CSV fields, so the two ingest paths
/// produce identical tables for identical data.
fn table_from_json(columns: &Json, rows: &Json) -> Result<Table, String> {
    let Some(columns) = columns.as_array() else {
        return Err("\"columns\" must be an array of strings".to_string());
    };
    let names: Vec<&str> = columns
        .iter()
        .map(|c| c.as_str().ok_or_else(|| "\"columns\" must be an array of strings".to_string()))
        .collect::<Result<_, _>>()?;
    let Some(rows) = rows.as_array() else {
        return Err("\"rows\" must be an array of arrays".to_string());
    };
    let mut text_rows: Vec<Vec<String>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Some(cells) = row.as_array() else {
            return Err(format!("row {i} is not an array"));
        };
        if cells.len() != names.len() {
            return Err(format!("row {i} has {} cells, expected {}", cells.len(), names.len()));
        }
        text_rows.push(
            cells.iter().map(|cell| cell_text(cell, i)).collect::<Result<Vec<String>, String>>()?,
        );
    }
    Table::from_text_rows(&names, &text_rows).map_err(|e| format!("invalid table: {e}"))
}

/// The CSV-field text of one JSON cell (`null` ⇒ empty ⇒ NULL on ingest).
/// Nested containers are client errors — silently stringifying them would
/// run the clean on garbage data while this parser fails loudly on every
/// other malformed shape.
fn cell_text(cell: &Json, row: usize) -> Result<String, String> {
    match cell {
        Json::Null => Ok(String::new()),
        Json::String(s) => Ok(s.clone()),
        Json::Array(_) | Json::Object(_) => {
            Err(format!("row {row} contains a nested array/object; cells must be scalars"))
        }
        other => Ok(other.to_string()),
    }
}

/// Renders the response body for a finished run. Key order is fixed, so
/// identical runs serialise to identical bytes.
pub fn clean_response_body(run: &CleaningRun, include_rows: bool) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"cleaned_csv\": {}, ", json_escape(&csv::write_str(&run.table))));
    if include_rows {
        out.push_str(&format!("\"cleaned_rows\": {}, ", table_json::rows_json(&run.table)));
    }
    out.push_str(&format!("\"columns\": {}, ", run.table.width()));
    out.push_str("\"notes\": [");
    for (i, note) in run.notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_escape(note));
    }
    out.push_str("], \"ops\": [");
    for (i, op) in run.ops.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"issue\": {}, \"column\": {}, \"cells_changed\": {}, \"confidence\": {}, \
             \"sql\": {}}}",
            json_escape(op.issue.name()),
            match &op.column {
                Some(c) => json_escape(c),
                None => "null".to_string(),
            },
            op.cells_changed,
            confidence_json(op.confidence.score()),
            json_escape(&op.rendered_sql()),
        ));
    }
    out.push_str("], \"pending\": [");
    for (i, op) in run.pending.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"issue\": {}, \"column\": {}, \"confidence\": {}, \"sql\": {}}}",
            json_escape(op.issue.name()),
            match &op.column {
                Some(c) => json_escape(c),
                None => "null".to_string(),
            },
            confidence_json(op.confidence.score()),
            json_escape(&op.rendered_sql()),
        ));
    }
    out.push_str(&format!("], \"rows\": {}, ", run.table.height()));
    out.push_str(&format!("\"schema\": {}, ", table_json::schema_json(&run.table)));
    out.push_str(&format!("\"sql_script\": {}, ", json_escape(&run.sql_script())));
    out.push_str(&format!("\"total_changes\": {}}}", run.total_changes()));
    out
}

/// Confidence scores on the wire, rounded to six decimals so the rendered
/// body never depends on float formatting noise (identical runs stay
/// byte-identical).
fn confidence_json(score: f64) -> String {
    format!("{}", (score * 1e6).round() / 1e6)
}

/// Renders a job view for `GET /v1/jobs/{id}`. A finished job's stored
/// body is copied once, into the response.
fn job_body(view: &crate::jobs::JobView) -> String {
    let p = &view.progress;
    let mut out = String::from("{");
    out.push_str(&format!("\"id\": {}, ", view.id));
    out.push_str(&format!("\"status\": {}, ", json_escape(view.status.label())));
    out.push_str(&format!("\"progress\": {}, ", progress_body(p)));
    match (&view.result, &view.error) {
        (Some(result), _) => {
            let field = "\"result\": ";
            out.reserve(field.len() + result.len() + 1);
            out.push_str(field);
            out.push_str(result);
            out.push('}');
        }
        (None, Some(error)) => out.push_str(&format!("\"error\": {}}}", json_escape(error))),
        (None, None) => out.push_str("\"result\": null}"),
    }
    out
}

fn progress_body(p: &ProgressSnapshot) -> String {
    format!(
        "{{\"total_stages\": {}, \"completed_stages\": {}, \"current_stage\": {}, \
         \"ops_applied\": {}, \"finished\": {}}}",
        p.total_stages,
        p.completed_stages,
        match p.current_stage {
            Some(name) => json_escape(name),
            None => "null".to_string(),
        },
        p.ops_applied,
        p.finished,
    )
}

/// The benchmark-catalog listing for `GET /v1/datasets`.
fn datasets_body() -> String {
    let mut out = String::from("{\"datasets\": [");
    for (i, dataset) in cocoon_datasets::catalog::all().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let errors: usize = dataset.error_counts().values().sum();
        out.push_str(&format!(
            "{{\"name\": {}, \"rows\": {}, \"columns\": {}, \"injected_errors\": {}, \
             \"fd_constraints\": {}}}",
            json_escape(dataset.name),
            dataset.dirty.height(),
            dataset.dirty.width(),
            errors,
            dataset.fd_constraints.len(),
        ));
    }
    out.push_str("]}");
    out
}

fn content_type_is_csv(value: Option<&str>) -> bool {
    // Parameters (`; charset=utf-8`) are tolerated and ignored.
    value
        .and_then(|v| v.split(';').next())
        .map(|t| t.trim().eq_ignore_ascii_case("text/csv"))
        .unwrap_or(false)
}

/// Whether the client asked for a CSV response (`Accept: text/csv`,
/// anywhere in the Accept list; quality parameters are ignored).
fn wants_csv(accept: Option<&str>) -> bool {
    accept
        .map(|v| {
            v.split(',').any(|item| {
                item.split(';').next().unwrap_or("").trim().eq_ignore_ascii_case("text/csv")
            })
        })
        .unwrap_or(false)
}

/// Renders a finished synchronous clean per the client's Accept header:
/// the full JSON report by default, just the cleaned table as `text/csv`
/// on request.
fn render_clean(run: &CleaningRun, include_rows: bool, accept_csv: bool) -> Response {
    if accept_csv {
        Response::csv(200, csv::write_str(&run.table))
    } else {
        Response::json(200, clean_response_body(run, include_rows))
    }
}

/// The `202 Accepted` body for a submitted job.
fn job_submitted_response(id: u64) -> Response {
    Response::json(
        202,
        format!(
            "{{\"id\": {id}, \"status\": {}, \"poll\": {}}}",
            json_escape(JobStatus::Queued.label()),
            json_escape(&format!("/v1/jobs/{id}")),
        ),
    )
}

/// Routes one request to its handler and counts it. The returned response
/// is ready to serialise.
pub fn route(state: &AppState, request: &Request) -> Response {
    state.metrics.count(Counter::Requests);
    let response = dispatch(state, request);
    state.metrics.count_status(response.status);
    response
}

fn dispatch(state: &AppState, request: &Request) -> Response {
    let method = request.head.method.as_str();
    let path = request.head.path.as_str();
    match path {
        "/v1/clean" => match method {
            "POST" => handle_clean(state, request),
            _ => Response::error(405, "use POST /v1/clean"),
        },
        "/v1/jobs" => match method {
            "POST" => handle_submit(state, request),
            _ => Response::error(405, "use POST /v1/jobs"),
        },
        "/v1/datasets" => match method {
            "GET" => {
                state.metrics.count(Counter::DatasetRequests);
                Response::json(200, datasets_body())
            }
            _ => Response::error(405, "use GET /v1/datasets"),
        },
        "/v1/reviews" => match method {
            "GET" => handle_reviews_list(state),
            _ => Response::error(405, "use GET /v1/reviews"),
        },
        "/v1/metrics" => match method {
            "GET" => {
                state.metrics.count(Counter::MetricsRequests);
                Response::json(200, state.metrics_body())
            }
            _ => Response::error(405, "use GET /v1/metrics"),
        },
        "/metrics" => match method {
            "GET" => {
                state.metrics.count(Counter::MetricsRequests);
                Response::text(200, "text/plain; version=0.0.4", state.prometheus_body())
            }
            _ => Response::error(405, "use GET /metrics"),
        },
        _ => match (method, path.strip_prefix("/v1/jobs/")) {
            ("GET", Some(id)) => handle_poll(state, id, wants_csv(request.head.header("Accept"))),
            ("DELETE", Some(id)) => handle_delete(state, id),
            (_, Some(_)) => Response::error(405, "use GET or DELETE /v1/jobs/{id}"),
            _ => match (method, path.strip_prefix("/v1/reviews/")) {
                ("POST", Some(rest)) => handle_review_action(state, rest),
                (_, Some(_)) => {
                    Response::error(405, "use POST /v1/reviews/{id}/accept or …/reject")
                }
                _ => Response::error(404, &format!("no route for {path}")),
            },
        },
    }
}

/// Parses a clean request's body by its `Content-Type`: a raw `text/csv`
/// document, or else the JSON envelope ([`parse_clean_payload`]).
fn request_payload(request: &Request) -> Result<CleanPayload, String> {
    if !content_type_is_csv(request.head.header("Content-Type")) {
        return parse_clean_payload(&request.body);
    }
    let mut stream = CsvStream::new();
    let table = stream
        .push_bytes(&request.body)
        .and_then(|()| stream.finish_table())
        .map_err(|e| format!("invalid csv: {e}"))?;
    if table.height() == 0 {
        return Err("table has no rows".to_string());
    }
    // A raw CSV body carries no envelope, so config and include_rows take
    // their defaults; clients needing overrides use the JSON body.
    Ok(CleanPayload { table, config: CleanerConfig::default(), include_rows: false })
}

fn handle_clean(state: &AppState, request: &Request) -> Response {
    state.metrics.count(Counter::CleanRequests);
    let payload = match request_payload(request) {
        Ok(payload) => payload,
        Err(message) => return Response::error(400, &message),
    };
    match state.run_clean(&payload, None, None) {
        Ok(run) => {
            render_clean(&run, payload.include_rows, wants_csv(request.head.header("Accept")))
        }
        Err(e) => Response::error(500, &format!("clean failed: {e}")),
    }
}

fn handle_submit(state: &AppState, request: &Request) -> Response {
    state.metrics.count(Counter::JobsSubmitted);
    // Validate up front so submitters learn about bad requests now, not
    // from a failed poll later.
    let payload = match request_payload(request) {
        Ok(payload) => payload,
        Err(message) => return Response::error(400, &message),
    };
    match state.jobs.submit(payload) {
        Some(id) => job_submitted_response(id),
        None => Response::error(429, "job queue is full; retry after polling existing jobs"),
    }
}

fn handle_poll(state: &AppState, id: &str, accept_csv: bool) -> Response {
    state.metrics.count(Counter::JobsPolled);
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, &format!("job id must be an integer, got {id:?}"));
    };
    match state.jobs.view(id) {
        Some(view) => {
            // `Accept: text/csv` on a *finished* job returns just the
            // cleaned table, mirroring the synchronous endpoint's content
            // negotiation; any other status still reports as JSON (there
            // is no table to render yet — or ever, for a failed run).
            if accept_csv && view.status == JobStatus::Done {
                if let Some(table) = result_csv(view.result.as_deref()) {
                    return Response::csv(200, table);
                }
            }
            Response::json(200, job_body(&view))
        }
        None => Response::error(404, &format!("no job {id}")),
    }
}

/// Extracts the cleaned table from a finished job's stored JSON report.
fn result_csv(result: Option<&str>) -> Option<String> {
    let json = cocoon_llm::json::parse(result?).ok()?;
    Some(json.get("cleaned_csv")?.as_str()?.to_string())
}

fn handle_delete(state: &AppState, id: &str) -> Response {
    state.metrics.count(Counter::JobsDeleted);
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, &format!("job id must be an integer, got {id:?}"));
    };
    match state.jobs.delete(id) {
        DeleteOutcome::Deleted => {
            // A deleted job takes its review queue with it: racing accepts
            // or rejects answer 404 afterwards, like any expired item.
            state.reviews.drop_job(id);
            Response::no_content()
        }
        DeleteOutcome::Running => {
            Response::error(409, &format!("job {id} is running; poll until it finishes"))
        }
        DeleteOutcome::NotFound => Response::error(404, &format!("no job {id}")),
    }
}

/// `GET /v1/reviews` — every retained review item, in id order.
fn handle_reviews_list(state: &AppState) -> Response {
    state.metrics.count(Counter::ReviewsListed);
    let mut out = String::from("{\"reviews\": [");
    let views = state.reviews.list();
    for (i, view) in views.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"id\": {}, \"job_id\": {}, \"status\": {}, \"issue\": {}, \"column\": {}, \
             \"confidence\": {}, \"confidence_detail\": {}, \"evidence\": {}, \
             \"reasoning\": {}, \"sql\": {}}}",
            view.id,
            match view.job_id {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            },
            json_escape(view.status.label()),
            json_escape(view.issue),
            match &view.column {
                Some(c) => json_escape(c),
                None => "null".to_string(),
            },
            confidence_json(view.confidence),
            json_escape(&view.confidence_detail),
            json_escape(&view.evidence),
            json_escape(&view.reasoning),
            json_escape(&view.sql),
        ));
    }
    out.push_str(&format!("], \"total\": {}}}", views.len()));
    Response::json(200, out)
}

/// `POST /v1/reviews/{id}/accept` and `…/reject`.
fn handle_review_action(state: &AppState, rest: &str) -> Response {
    let Some((id, action)) = rest.split_once('/') else {
        return Response::error(404, "use POST /v1/reviews/{id}/accept or …/reject");
    };
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, &format!("review id must be an integer, got {id:?}"));
    };
    match action {
        "accept" => {
            state.metrics.count(Counter::ReviewAccepts);
            match state.reviews.accept(id) {
                AcceptOutcome::Applied { cells_changed, csv } => Response::json(
                    200,
                    format!(
                        "{{\"id\": {id}, \"status\": \"accepted\", \"cells_changed\": \
                         {cells_changed}, \"cleaned_csv\": {}}}",
                        json_escape(&csv),
                    ),
                ),
                AcceptOutcome::Conflict => {
                    Response::error(409, &format!("review {id} was rejected; cannot accept"))
                }
                AcceptOutcome::NotFound => Response::error(404, &format!("no review {id}")),
                AcceptOutcome::Failed(e) => Response::error(500, &e),
            }
        }
        "reject" => {
            state.metrics.count(Counter::ReviewRejects);
            match state.reviews.reject(id) {
                RejectOutcome::Rejected => {
                    Response::json(200, format!("{{\"id\": {id}, \"status\": \"rejected\"}}"))
                }
                RejectOutcome::Conflict => {
                    Response::error(409, &format!("review {id} was accepted; cannot reject"))
                }
                RejectOutcome::NotFound => Response::error(404, &format!("no review {id}")),
            }
        }
        other => Response::error(404, &format!("unknown review action {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_core::Cleaner;
    use cocoon_llm::SimLlm;

    #[test]
    fn csv_and_json_ingest_agree() {
        let from_csv = parse_clean_payload(br#"{"csv": "id,lang\n1,eng\n2,\n"}"#).unwrap();
        let from_json =
            parse_clean_payload(br#"{"columns": ["id", "lang"], "rows": [[1, "eng"], [2, null]]}"#)
                .unwrap();
        assert_eq!(from_csv.table, from_json.table);
        assert!(!from_csv.include_rows);
        assert_eq!(from_csv.config, CleanerConfig::default());
    }

    #[test]
    fn config_and_flags_parse() {
        let payload = parse_clean_payload(
            br#"{"csv": "a\nx\n", "config": {"threads": 1}, "include_rows": true}"#,
        )
        .unwrap();
        assert_eq!(payload.config.threads, Some(1));
        assert!(payload.include_rows);
    }

    #[test]
    fn requested_threads_are_capped_at_the_cores() {
        let cores = threadpool::default_threads();
        let threads = |body: &str| parse_clean_payload(body.as_bytes()).unwrap().config.threads;
        assert_eq!(threads(r#"{"csv": "a\nx\n", "config": {"threads": 1000000}}"#), Some(cores));
        assert_eq!(threads(r#"{"csv": "a\nx\n", "config": {"threads": 1}}"#), Some(1));
        assert_eq!(threads(r#"{"csv": "a\nx\n"}"#), None);
    }

    #[test]
    fn escaped_surrogate_pairs_ingest_as_one_character() {
        // Python's `json.dumps` writes U+1F600 as the pair `\ud83d\ude00`.
        let payload =
            parse_clean_payload(br#"{"csv": "id,name\n1,caf\u00e9 \ud83d\ude00\n"}"#).unwrap();
        assert_eq!(payload.table.cell(0, 1).unwrap(), &cocoon_table::Value::from("café 😀"));
    }

    #[test]
    fn unparsable_json_names_the_byte_it_failed_at() {
        // "é" is one char and two bytes; the missing comma is at char 12,
        // byte 13 of the body.
        let body = r#"{"csv": "é" "rows": []}"#.as_bytes();
        assert_eq!(
            parse_clean_payload(body).err().unwrap(),
            "invalid json: expected ',' or '}' at byte 13"
        );
    }

    #[test]
    fn bad_payloads_are_client_errors() {
        for (body, why) in [
            (&b"not json"[..], "unparsable"),
            (br#"[1]"#, "not an object"),
            (br#"{}"#, "no table"),
            (br#"{"csv": 5}"#, "csv not a string"),
            (br#"{"csv": ""}"#, "empty csv"),
            (br#"{"csv": "a\nx\n", "rows": []}"#, "csv and rows together"),
            (br#"{"columns": ["a"]}"#, "columns without rows"),
            (br#"{"columns": ["a"], "rows": [[1, 2]]}"#, "row arity"),
            (br#"{"columns": ["a"], "rows": [5]}"#, "row not an array"),
            (br#"{"columns": ["a"], "rows": [[[1, 2]]]}"#, "nested array cell"),
            (br#"{"columns": ["a"], "rows": [[{"k": 1}]]}"#, "nested object cell"),
            (br#"{"columns": [1], "rows": []}"#, "column name not a string"),
            (br#"{"csv": "a\nx\n", "config": {"nope": 1}}"#, "unknown config key"),
            (br#"{"csv": "a\nx\n", "include_rows": "yes"}"#, "flag not a bool"),
            (br#"{"csv": "a\nx\n", "extra": 1}"#, "unknown request field"),
        ] {
            assert!(parse_clean_payload(body).is_err(), "{why}");
        }
    }

    #[test]
    fn response_body_is_valid_json_with_the_documented_fields() {
        let payload =
            parse_clean_payload(br#"{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}"#)
                .unwrap();
        let run = Cleaner::with_config(SimLlm::new(), payload.config).unwrap();
        let run = run.clean(&payload.table).unwrap();
        let body = clean_response_body(&run, true);
        let json = cocoon_llm::json::parse(&body).expect("body parses as json");
        for field in [
            "cleaned_csv",
            "cleaned_rows",
            "columns",
            "notes",
            "ops",
            "pending",
            "rows",
            "schema",
            "sql_script",
            "total_changes",
        ] {
            assert!(json.get(field).is_some(), "missing {field}");
        }
        // Every op reports its confidence score on the wire.
        let ops = json.get("ops").unwrap().as_array().unwrap();
        assert!(!ops.is_empty());
        for op in ops {
            let confidence = op.get("confidence").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&confidence));
        }
        // The default threshold (0.0) withholds nothing.
        assert!(json.get("pending").unwrap().as_array().unwrap().is_empty());
        assert_eq!(json.get("rows").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            json.get("cleaned_csv").unwrap().as_str(),
            Some(csv::write_str(&run.table).as_str())
        );
        assert_eq!(json.get("cleaned_rows").unwrap().as_array().unwrap().len(), run.table.height());
        // Without include_rows the field is absent.
        let lean = clean_response_body(&run, false);
        assert!(cocoon_llm::json::parse(&lean).unwrap().get("cleaned_rows").is_none());
    }

    #[test]
    fn datasets_body_lists_the_catalog() {
        let body = datasets_body();
        let json = cocoon_llm::json::parse(&body).unwrap();
        let datasets = json.get("datasets").unwrap().as_array().unwrap();
        assert_eq!(datasets.len(), 5);
        assert_eq!(datasets[0].get("name").unwrap().as_str(), Some("Hospital"));
        assert!(datasets.iter().all(|d| d.get("rows").unwrap().as_f64().unwrap() > 0.0));
    }
}
