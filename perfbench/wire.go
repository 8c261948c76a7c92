package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// wireConn is the generator's keep-alive HTTP/1.1 client for the event
// route: request bytes are built once and written with one syscall per
// batch, and responses are read in order, so pipelined requests cost the
// generator almost nothing beside the server's work.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// ioTimeout bounds every read and write: a server that stops answering fails
// the run instead of hanging it.
const ioTimeout = 30 * time.Second

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (w *wireConn) Close() error { return w.c.Close() }

// send writes b (one or more framed requests).
func (w *wireConn) send(b []byte) error {
	if err := w.c.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err := w.c.Write(b)
	return err
}

// recv reads the next response and returns its status; the body is kept in
// w.body until the next call.
func (w *wireConn) recv() (int, error) {
	if err := w.c.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, err
	}
	return readResponse(w.br, &w.body)
}

// appendEventRequest frames POST /fleet/homes/{home}/events with body.
func appendEventRequest(dst []byte, home string, body []byte) []byte {
	dst = append(dst, "POST /fleet/homes/"...)
	dst = append(dst, home...)
	dst = append(dst, "/events HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

var errNoLength = errors.New("response has no Content-Length")

// readResponse reads one HTTP/1.1 response framed by Content-Length (the
// only framing the raw ingest front end emits) and stores its body in *body.
func readResponse(br *bufio.Reader, body *[]byte) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, fmt.Errorf("status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(name, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil || length < 0 {
				return 0, fmt.Errorf("bad Content-Length %q", value)
			}
		}
	}
	if length < 0 {
		if status == 204 || status == 304 || status/100 == 1 {
			length = 0
		} else {
			return 0, errNoLength
		}
	}
	if cap(*body) < length {
		*body = make([]byte, length)
	}
	*body = (*body)[:length]
	if _, err := io.ReadFull(br, *body); err != nil {
		return 0, fmt.Errorf("body: %w", err)
	}
	return status, nil
}
