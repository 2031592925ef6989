//! Every JSON document the repository tracks (outside the end-to-end
//! benchmark's own files) parses with the workspace's one reader.

#[test]
fn tracked_documents_parse() {
    let documents = [
        ("BENCH_codec.json", include_str!("../../../BENCH_codec.json")),
        ("BENCH_pmrd.json", include_str!("../../../BENCH_pmrd.json")),
        ("tests/golden/golden.json", include_str!("../../../tests/golden/golden.json")),
    ];
    for (name, text) in documents {
        let doc = pmr_json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(matches!(doc, pmr_json::Json::Obj(_)), "{name} is not a JSON object");
    }
}
