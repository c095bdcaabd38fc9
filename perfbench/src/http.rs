//! A minimal close-per-request HTTP/1.1 client for the `rtrd` API.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole response.
///
/// # Errors
///
/// Connection, I/O, or protocol errors (a read timeout included).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let head =
        format!("{method} {path} HTTP/1.1\r\nhost: rtrd\r\ncontent-length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).map_err(|e| format!("write: {e}"))?;
    stream.write_all(body.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no header block")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    Ok(Response { status, body: body.to_owned() })
}

/// The unsigned integer following `"key":` in a JSON body.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let rest = body.split_once(&format!("\"{key}\":"))?.1;
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
}

/// The `result` object of a `done` result response (the response's last
/// field, so everything after `"result":` up to the closing brace).
pub fn result_object(body: &str) -> Option<&str> {
    let rest = body.split_once("\"result\":")?.1;
    rest.strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fields() {
        let body = "{\"job\":12,\"state\":\"done\",\"cached\":true,\"result\":{\"a\":1}}";
        assert_eq!(field_u64(body, "job"), Some(12));
        assert_eq!(result_object(body), Some("{\"a\":1}"));
        assert_eq!(field_u64(body, "missing"), None);
    }
}
