//! A minimal HTTP/1.1 client for `vhdl1d`: one connection per request, as
//! the daemon answers with `Connection: close`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request and returns the status and the body.
pub fn request(addr: &str, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    parse_response(&response)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Splits a complete response into status and body, checking the body
/// against `Content-Length`.
fn parse_response(response: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response without a header block"))?;
    let head = std::str::from_utf8(&response[..end]).map_err(|_| invalid("header not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let body = response[end + 4..].to_vec();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("unparseable Content-Length"))?;
                if length != body.len() {
                    return Err(invalid("body shorter or longer than Content-Length"));
                }
            }
        }
    }
    Ok((status, body))
}

/// The value of an unlabelled Prometheus sample `name` in `text`.
pub fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|value| value.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_and_short_bodies_fail() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_response(ok).unwrap(), (200, b"abc".to_vec()));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc";
        assert!(parse_response(short).is_err());
    }

    #[test]
    fn prometheus_samples_are_found_by_exact_name() {
        let text = "# HELP x_total y\nx_total_more 9\nx_total 4\n";
        assert_eq!(prometheus_value(text, "x_total"), Some(4.0));
        assert_eq!(prometheus_value(text, "z"), None);
    }
}
