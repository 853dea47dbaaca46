"""Differential equivalence: buffered bit I/O vs the single-int oracle.

:class:`repro.storage.encoding.BitWriter` flushes whole bytes out of a
bounded pending integer and :class:`~repro.storage.encoding.BitReader`
reads through a bounded window of the buffer.  The oracle in
:mod:`tests.storage.bitio_ref` does neither: it shifts one integer
holding the whole stream.  These tests run random *programs* against
both in lockstep and require identical answers at every step: the
bytes, every read value, ``position``, ``remaining()``, ``bit_length()``,
and the type and message of every rejected write or read.

A program is a JSON object of two step lists.  ``writes`` steps either
write ``count`` fields of ``width`` bits (values drawn from
``random.Random(seed)``) or try one value that must be rejected;
``reads`` steps read ``count`` fields of ``width`` bits from the bytes
the writers produced.  Streams are at least ``MIN_STREAM_BITS`` long
and some fields are wider than both the writer's flush threshold and
the reader's window, so every program crosses many flush and refill
boundaries.  Every program ends with a read longer than the stream, so
it also checks the truncation error.

When a program disagrees, it is serialized to
``bitio-differential-failure.json`` (path overridable via
``BITIO_DIFFERENTIAL_ARTIFACT``) so CI can upload it and anyone can
replay it locally with ``replay_program``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.encoding import BitReader, BitWriter, EncodingError

from tests.storage.bitio_ref import BitReaderRef, BitWriterRef

ARTIFACT_ENV = "BITIO_DIFFERENTIAL_ARTIFACT"
ARTIFACT_DEFAULT = "bitio-differential-failure.json"

MIN_STREAM_BITS = 20_000
WIDE_FIELD_BITS = (4_100, 12_000)  # wider than the flush threshold and window


# ---------------------------------------------------------------------------
# program interpreter
# ---------------------------------------------------------------------------

def _outcome(call):
    """``("ok", result)`` or ``("raised", type name, message)``."""
    try:
        return ("ok", call())
    except (ValueError, EncodingError) as error:
        return ("raised", type(error).__name__, str(error))


def replay_program(program: dict) -> None:
    """Run one differential program; raises AssertionError on divergence."""
    writer, oracle_writer = BitWriter(), BitWriterRef()
    for step in program["writes"]:
        op = step["op"]
        if op == "write":
            rng = random.Random(step["seed"])
            width = step["width"]
            for _ in range(step["count"]):
                value = rng.getrandbits(width) if width else 0
                got = _outcome(lambda: writer.write(value, width))
                want = _outcome(lambda: oracle_writer.write(value, width))
                assert got == want, (step, got, want)
        elif op == "reject":
            value, width = step["value"], step["width"]
            got = _outcome(lambda: writer.write(value, width))
            want = _outcome(lambda: oracle_writer.write(value, width))
            assert want[0] == "raised", step
            assert got == want, (step, got, want)
        else:
            raise ValueError(f"unknown differential op {op!r}")
        assert writer.bit_length() == oracle_writer.bit_length(), step
        assert writer.to_bytes() == oracle_writer.to_bytes(), step

    data = oracle_writer.to_bytes()
    reader, oracle_reader = BitReader(data), BitReaderRef(data)
    for step in program["reads"]:
        width = step["width"]
        for _ in range(step["count"]):
            got = _outcome(lambda: reader.read(width))
            want = _outcome(lambda: oracle_reader.read(width))
            assert got == want, (step, got, want)
            assert reader.position == oracle_reader.position, step
            assert reader.remaining() == oracle_reader.remaining(), step


def _dump_failure(program: dict, error: BaseException) -> Path:
    path = Path(os.environ.get(ARTIFACT_ENV, ARTIFACT_DEFAULT))
    path.write_text(
        json.dumps(
            {
                "note": (
                    "buffered vs oracle bit I/O divergence; replay with "
                    "tests.storage.test_bitio_differential.replay_program"
                ),
                "error": repr(error),
                "program": program,
            },
            indent=2,
        )
        + "\n"
    )
    return path


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

field_width = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(*WIDE_FIELD_BITS),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _reject_step(draw) -> dict:
    width = draw(st.integers(min_value=0, max_value=300))
    kind = draw(st.sampled_from(("too-wide", "negative-value", "negative-width")))
    if kind == "too-wide":
        value = (1 << width) + draw(st.integers(min_value=0, max_value=1000))
    elif kind == "negative-value":
        value = -draw(st.integers(min_value=1, max_value=1000))
    else:
        value, width = 0, -draw(st.integers(min_value=1, max_value=8))
    return {"op": "reject", "value": value, "width": width}


@st.composite
def programs(draw) -> dict:
    writes: list[dict] = []
    total = 0
    for _ in range(40):  # bounded: shrinking may drive every width to 0
        if total >= MIN_STREAM_BITS:
            break
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            writes.append(draw(_reject_step()))
            continue
        width = draw(field_width)
        count = 1 if width > 300 else draw(st.integers(1, 150))
        writes.append(
            {"op": "write", "width": width, "count": count, "seed": draw(seeds)}
        )
        total += width * count
    if total < MIN_STREAM_BITS:
        count = -(-(MIN_STREAM_BITS - total) // 300)
        writes.append(
            {"op": "write", "width": 300, "count": count, "seed": draw(seeds)}
        )
        total += 300 * count

    reads: list[dict] = []
    consumed = 0
    stream_bits = total + (-total) % 8
    for _ in range(60):
        if consumed > stream_bits:
            break
        width = draw(field_width)
        count = 1 if width > 300 else draw(st.integers(1, 150))
        reads.append({"width": width, "count": count})
        consumed += width * count
    # Zero-width reads, a read longer than the whole stream, and a
    # negative width: the last two must fail the same way on both sides.
    reads.append({"width": 0, "count": 2})
    reads.append({"width": stream_bits + 1, "count": 1})
    reads.append({"width": -1, "count": 1})
    return {"writes": writes, "reads": reads}


class TestDifferentialPrograms:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_random_programs_agree(self, program):
        try:
            replay_program(program)
        except AssertionError as error:
            artifact = _dump_failure(program, error)
            raise AssertionError(
                f"bit I/O divergence; failing program written to {artifact}"
            ) from error

    def test_replay_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown differential op"):
            replay_program({"writes": [{"op": "frobnicate"}], "reads": []})

    def test_failure_dump_is_replayable_json(self, tmp_path, monkeypatch):
        """The artifact a CI failure uploads must round-trip to replay."""
        monkeypatch.setenv(ARTIFACT_ENV, str(tmp_path / "failure.json"))
        program = {
            "writes": [
                {"op": "write", "width": 5_000, "count": 1, "seed": 3},
                {"op": "write", "width": 17, "count": 1_200, "seed": 4},
                {"op": "reject", "value": 8, "width": 3},
            ],
            "reads": [
                {"width": 13, "count": 2_000},
                {"width": 0, "count": 1},
                {"width": 9_000, "count": 1},
            ],
        }
        artifact = _dump_failure(program, AssertionError("synthetic"))
        payload = json.loads(artifact.read_text())
        replay_program(payload["program"])  # must not raise
