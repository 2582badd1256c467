//! A minimal blocking client for the daemon's wire protocol.
//!
//! Shared by the CLI's `client` subcommand, the load generator and the
//! integration suite, so they all speak the exact same bytes.

use mpress_api::{decode_response_line, encode_request_line, DecodedResponse, Request, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One TCP connection to a running daemon.
///
/// Requests may be pipelined: [`Client::send`] returns the assigned
/// request id, and [`Client::recv`] returns responses in server
/// completion order (match them up by [`DecodedResponse::id`]).
/// [`Client::request`] is the simple one-at-a-time wrapper.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Sends one request without waiting, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure.
    pub fn send(&mut self, request: &Request) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_raw(&encode_request_line(id, request))?;
        Ok(id)
    }

    /// Sends one raw line verbatim (protocol testing).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ServeError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| ServeError::Io(format!("send: {e}")))
    }

    /// Receives the next response line, raw.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure or a closed connection.
    pub fn recv_raw(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ServeError::Io(format!("recv: {e}")))?;
        if n == 0 {
            return Err(ServeError::Io("connection closed".to_owned()));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_owned())
    }

    /// Receives and decodes the next response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure,
    /// [`ServeError::Protocol`] on an undecodable line.
    pub fn recv(&mut self) -> Result<DecodedResponse, ServeError> {
        let line = self.recv_raw()?;
        decode_response_line(&line)
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures as in [`Client::send`] and
    /// [`Client::recv`]; a response id mismatch is a
    /// [`ServeError::Protocol`].
    pub fn request(&mut self, request: &Request) -> Result<DecodedResponse, ServeError> {
        let id = self.send(request)?;
        let decoded = self.recv()?;
        if decoded.id != id {
            return Err(ServeError::Protocol(format!(
                "response id {} does not match request id {id}",
                decoded.id
            )));
        }
        Ok(decoded)
    }
}
