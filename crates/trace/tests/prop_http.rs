//! Property tests for the HTTP request reader: whatever bytes a client
//! sends — arbitrary noise, a truncated head, a bad or huge
//! `Content-Length`, non-UTF-8 — `read_request` returns `Ok` or `Err`,
//! never panics, and never accepts more than the request-size cap.

use proptest::prelude::*;
use std::io::Read;
use tunio_trace::http::{read_request, Request, MAX_REQUEST_BYTES};

/// Hands out the input at most `chunk` bytes per `read`, so header
/// terminators and bodies straddle read boundaries.
struct Chunked<'a>(&'a [u8], usize);

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.1.min(buf.len()).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

fn read(raw: &[u8], chunk: usize) -> std::io::Result<Request> {
    let parsed = read_request(&mut Chunked(raw, chunk));
    if let Ok(req) = &parsed {
        assert!(req.body.len() < MAX_REQUEST_BYTES && req.body.len() <= raw.len());
    }
    parsed
}

fn with_body(head: &str, body: &[u8]) -> Vec<u8> {
    [head.as_bytes(), b"\r\n\r\n", body].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..64,
    ) {
        let _ = read(&raw, chunk);
    }

    #[test]
    fn truncated_requests_are_errors(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..1000,
        chunk in 1usize..64,
    ) {
        let head = format!("POST /campaigns?t=1 HTTP/1.1\r\nContent-Length: {}", body.len());
        let raw = with_body(&head, &body);
        prop_assert!(read(&raw[..cut % raw.len()], chunk).is_err());
        prop_assert_eq!(read(&raw, chunk).expect("whole request parses").body, body);
    }

    #[test]
    fn bad_or_huge_content_length_is_handled(
        value in prop_oneof![
            Just(String::new()),
            Just("-1".to_string()),
            Just("1e3".to_string()),
            Just(" 7 ".to_string()),
            Just("99999999999999999999999999".to_string()),
            Just(MAX_REQUEST_BYTES.to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            (0usize..200).prop_map(|n| n.to_string()),
        ],
        body in proptest::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..4096,
    ) {
        let raw = with_body(&format!("POST / HTTP/1.1\r\nContent-Length: {value}"), &body);
        if let Ok(req) = read(&raw, chunk) {
            prop_assert_eq!(req.body.len().to_string(), value.trim());
        }
    }

    #[test]
    fn non_utf8_heads_never_panic(
        noise in proptest::collection::vec(128u8..=255, 1..64),
        at in 0usize..1000,
        chunk in 1usize..64,
    ) {
        let mut raw = with_body("GET /campaigns/x/events?from=1 HTTP/1.1\r\nHost: h", b"");
        let at = at % raw.len();
        raw.splice(at..at, noise);
        let _ = read(&raw, chunk);
    }
}
