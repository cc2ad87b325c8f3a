import socket
import struct
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pktm import mapreduce
from pktm.mapreduce import engine, protocol
from pktm.mapreduce.protocol import (
    Message,
    ProtocolError,
    decode_payload,
    parse_hostport,
    recv_message,
    send_message,
)

ALL_TAGS = (protocol.REGISTER, protocol.TASK_ASSIGN, protocol.TASK_DONE,
            protocol.REDUCE_ASSIGN, protocol.REDUCE_DONE, protocol.SHUTDOWN)


def roundtrip(msg: Message) -> Message:
    frame = msg.encode()
    size = struct.unpack_from("<I", frame, 0)[0]
    assert size == len(frame) - 4
    return decode_payload(frame[4:])


class TestEncodeDecode:
    def test_register(self):
        back = roundtrip(Message(protocol.REGISTER, ident=4321,
                                 detail="/tmp/manifest.pkl"))
        assert back.tag == protocol.REGISTER
        assert back.ident == 4321
        assert back.detail == "/tmp/manifest.pkl"

    def test_assign(self):
        back = roundtrip(Message(protocol.TASK_ASSIGN, ident=17))
        assert (back.tag, back.ident) == (protocol.TASK_ASSIGN, 17)

    def test_done_ok(self):
        back = roundtrip(Message(protocol.TASK_DONE, ident=3))
        assert back.status == protocol.STATUS_OK
        assert back.detail == ""

    def test_done_failed_carries_detail(self):
        msg = Message(protocol.REDUCE_DONE, ident=9,
                      status=protocol.STATUS_FAILED,
                      detail="ValueError('no')")
        back = roundtrip(msg)
        assert back.status == protocol.STATUS_FAILED
        assert back.detail == "ValueError('no')"

    def test_header_only_frame(self):
        back = roundtrip(Message(protocol.SHUTDOWN))
        assert back == Message(protocol.SHUTDOWN)
        # frame = 4-byte length + 8-byte header, no detail
        assert len(Message(protocol.SHUTDOWN).encode()) == 12

    @pytest.mark.parametrize("tag", ALL_TAGS)
    @pytest.mark.parametrize("detail", ["", "x", "/tmp/manifest.pkl",
                                        "départ — 失败"])
    def test_every_tag_has_one_layout(self, tag, detail):
        msg = Message(tag, ident=2**32 - 1, status=protocol.STATUS_REJECTED,
                      detail=detail)
        frame = msg.encode()
        text = detail.encode("utf-8")
        assert len(frame) == 4 + 8 + len(text)
        assert frame[4:12] == struct.pack("<BIBH", tag, 2**32 - 1,
                                          protocol.STATUS_REJECTED, len(text))
        assert frame[12:] == text
        assert roundtrip(msg) == msg

    def test_former_heartbeat_tag_is_unknown(self):
        with pytest.raises(ProtocolError, match="unknown message tag 6"):
            decode_payload(bytes([6]))
        with pytest.raises(ProtocolError):
            Message(tag=6).encode()

    def test_unicode_detail(self):
        back = roundtrip(Message(protocol.TASK_DONE, ident=1,
                                 status=1, detail="départ — 失败"))
        assert back.detail == "départ — 失败"

    def test_unknown_tag_encode(self):
        with pytest.raises(ProtocolError):
            Message(tag=200).encode()

    def test_unknown_tag_decode(self):
        with pytest.raises(ProtocolError):
            decode_payload(bytes([250]) + b"\x00" * 4)

    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"")

    def test_detail_beyond_declared_length(self):
        # a SHUTDOWN header declaring no detail, followed by one byte
        payload = struct.pack("<BIBH", protocol.SHUTDOWN, 0, 0, 0) + b"x"
        with pytest.raises(ProtocolError, match="declares 0 detail bytes"):
            decode_payload(payload)

    def test_short_body(self):
        with pytest.raises(ProtocolError, match="short payload"):
            decode_payload(bytes([protocol.TASK_ASSIGN]) + b"\x01")

    def test_length_mismatch_in_detail(self):
        # claims 5 detail bytes but carries 2
        body = struct.pack("<IBH", 1, 0, 5) + b"ab"
        with pytest.raises(ProtocolError):
            decode_payload(bytes([protocol.TASK_DONE]) + body)

    @pytest.mark.parametrize("tag", [6, 7, 255])
    def test_unknown_tag_with_full_header(self, tag):
        with pytest.raises(ProtocolError, match=f"unknown message tag {tag}"):
            decode_payload(struct.pack("<BIBH", tag, 0, 0, 0))

    def test_detail_not_utf8(self):
        # a worker that lies: its reply's detail is not UTF-8
        payload = struct.pack("<BIBH", protocol.TASK_DONE, 0, 0, 1) + b"\xff"
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode_payload(payload)

    def test_overlong_detail_encode(self):
        with pytest.raises(ProtocolError):
            Message(protocol.TASK_DONE, detail="x" * 2**16).encode()

    @given(st.binary(max_size=40))
    def test_any_bytes_decode_or_protocol_error(self, payload):
        """Whatever a peer sends, decoding yields a Message or raises
        ProtocolError, never anything else."""
        try:
            msg = decode_payload(payload)
        except ProtocolError:
            return
        assert isinstance(msg, Message)
        assert msg.encode()[4:] == payload

    @given(st.sampled_from(ALL_TAGS), st.integers(0, 2**32 - 1),
           st.integers(0, 255), st.binary(max_size=20))
    def test_any_detail_bytes_decode_or_protocol_error(self, tag, ident,
                                                       status, detail):
        """Well-framed payloads with arbitrary detail bytes, most of them
        not UTF-8, reach the detail check that random bytes rarely do."""
        payload = struct.pack("<BIBH", tag, ident, status, len(detail)) + detail
        try:
            msg = decode_payload(payload)
        except ProtocolError:
            return
        assert msg.detail.encode("utf-8") == detail

    @given(st.sampled_from([protocol.TASK_DONE, protocol.REDUCE_DONE]),
           st.integers(0, 2**32 - 1), st.integers(0, 1),
           st.text(max_size=100))
    def test_done_roundtrip_property(self, tag, ident, status, detail):
        back = roundtrip(Message(tag, ident=ident, status=status,
                                 detail=detail))
        assert (back.tag, back.ident, back.status, back.detail) == \
            (tag, ident, status, detail)


class TestSocketHelpers:
    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_send_recv(self):
        a, b = self.pair()
        try:
            send_message(a, Message(protocol.REDUCE_ASSIGN, ident=6))
            msg = recv_message(b)
            assert msg.tag == protocol.REDUCE_ASSIGN and msg.ident == 6
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self.pair()
        try:
            a.close()
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self.pair()
        try:
            frame = Message(protocol.TASK_ASSIGN, ident=1).encode()
            a.sendall(frame[:3])
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_raises(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack("<I", protocol.MAX_FRAME + 10))
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_longest_frame_is_read(self):
        """A detail of 0xFFFF bytes, the longest the layout encodes, makes
        a payload of exactly MAX_FRAME bytes, and it is read back."""
        a, b = self.pair()
        try:
            msg = Message(protocol.TASK_DONE, ident=3, detail="x" * 0xFFFF)
            frame = msg.encode()
            assert len(frame) == 4 + protocol.MAX_FRAME
            writer = threading.Thread(target=a.sendall, args=(frame,))
            writer.start()
            assert recv_message(b) == msg
            writer.join()
        finally:
            a.close()
            b.close()

    def test_frame_one_byte_over_the_limit_is_refused_unread(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack("<I", protocol.MAX_FRAME + 1) + b"payload")
            with pytest.raises(ProtocolError, match="exceeds limit"):
                recv_message(b)
            assert b.recv(16) == b"payload"   # no payload byte was read
        finally:
            a.close()
            b.close()

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=10),
           st.integers(1, 7))
    def test_any_chunking_reassembles(self, idents, chunk):
        """Frames that arrive in arbitrary pieces, split anywhere, are read
        back whole and in order."""
        a, b = self.pair()
        try:
            blob = b"".join(Message(protocol.TASK_ASSIGN, ident=i).encode()
                            for i in idents)

            def writer():
                for i in range(0, len(blob), chunk):
                    a.sendall(blob[i:i + chunk])
                    time.sleep(0)   # let the reader take each piece alone
                a.close()

            t = threading.Thread(target=writer)
            t.start()
            seen = []
            while (msg := recv_message(b)) is not None:
                seen.append(msg.ident)
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert seen == idents
        finally:
            a.close()
            b.close()

    def test_many_messages_in_order(self):
        a, b = self.pair()
        try:
            def writer():
                for i in range(50):
                    send_message(a, Message(protocol.TASK_DONE, ident=i,
                                            detail=f"t{i}"))
            t = threading.Thread(target=writer)
            t.start()
            got = [recv_message(b) for _ in range(50)]
            t.join()
            assert [m.ident for m in got] == list(range(50))
            assert got[-1].detail == "t49"
        finally:
            a.close()
            b.close()


class TestParseHostport:
    @pytest.mark.parametrize("text,want", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),       # run_job's default listen
        ("0.0.0.0:5000", ("0.0.0.0", 5000)),
        ("::1:7000", ("::1", 7000)),            # split at the last colon
    ], ids=["default", "explicit", "last-colon"])
    def test_parses(self, text, want):
        assert parse_hostport(text) == want

    @pytest.mark.parametrize("text,match", [
        ("localhost", "expected host:port, got 'localhost'"),
        (":5000", "expected host:port, got ':5000'"),
        ("localhost:http", "bad port in 'localhost:http'"),
    ], ids=["missing-port", "missing-host", "bad-port"])
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_hostport(text)


def test_map_output_error_is_one_class():
    """Defined beside the status that carries it; the engine and the
    package still export it."""
    assert mapreduce.MapOutputError is protocol.MapOutputError
    assert engine.MapOutputError is protocol.MapOutputError
