"""worker_loop and the stdio worker entry, run in-process."""

import io
import json
import os
import queue
import threading
import time

from repro.campaign.store import machine_to_dict
from repro.campaign.fingerprint import spec_fingerprint
from repro.campaign.store import result_from_dict, spec_to_dict
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_workload
from repro.herd.protocol import frame, make_shard_doc, unframe
from repro.herd.worker import stdio_worker_main, worker_loop

CONFIG = machine(4, instructions=2_000)


def entry_for(mix="Q1", scheme="lru", seed=0):
    spec = RunSpec(mix=mix, scheme=scheme, seed=seed)
    return {
        "fingerprint": spec_fingerprint(spec, CONFIG),
        "spec": spec_to_dict(spec),
    }


def shard_doc(entries, heartbeat=30.0, retries=0):
    """Long default heartbeat: these tests assert exact message sequences."""
    return make_shard_doc(
        "w0", machine_to_dict(CONFIG), entries, heartbeat=heartbeat, retries=retries
    )


def run_loop(entries, control_messages, **doc_kwargs):
    sent = []
    control = queue.Queue()
    for message in control_messages:
        control.put(message)
    done = worker_loop(shard_doc(entries, **doc_kwargs), sent.append, control)
    return done, sent


class TestWorkerLoop:
    def test_hello_result_bye_sequence(self):
        done, sent = run_loop([entry_for()], [{"type": "fin"}])
        kinds = [m["type"] for m in sent if m["type"] != "heartbeat"]
        assert kinds == ["hello", "result", "bye"]
        assert done == 1
        assert sent[0]["assigned"] == 1

    def test_result_record_is_store_shaped_and_correct(self):
        entry = entry_for()
        _, sent = run_loop([entry], [{"type": "fin"}])
        record = next(m for m in sent if m["type"] == "result")["data"]
        assert record["record"] == "result"
        assert record["fingerprint"] == entry["fingerprint"]
        assert record["spec"] == entry["spec"]
        assert record["meta"]["wall_seconds"] > 0
        # The streamed payload is the run a local caller would compute.
        expected = run_workload("Q1", CONFIG, "lru", seed=0)
        assert result_from_dict(record["result"]) == expected

    def test_drain_skips_queued_work(self):
        done, sent = run_loop(
            [entry_for(), entry_for(scheme="prism-h")], [{"type": "drain"}]
        )
        assert done == 0
        bye = next(m for m in sent if m["type"] == "bye")
        assert bye["drained"] is True
        assert not any(m["type"] == "result" for m in sent)

    def test_assign_extends_work(self):
        done, sent = run_loop(
            [entry_for()],
            [
                {"type": "assign", "specs": [entry_for(scheme="prism-h")]},
                {"type": "fin"},
            ],
        )
        assert done == 2
        fps = [m["data"]["fingerprint"] for m in sent if m["type"] == "result"]
        assert len(set(fps)) == 2

    def test_failure_record_for_broken_spec(self):
        spec = RunSpec(mix="NO-SUCH-MIX", scheme="lru")
        entry = {
            "fingerprint": spec_fingerprint(spec, CONFIG),
            "spec": spec_to_dict(spec),
        }
        done, sent = run_loop([entry], [{"type": "fin"}])
        assert done == 0
        record = next(m for m in sent if m["type"] == "failure")["data"]
        assert record["record"] == "failure"
        assert record["failure"]["error_type"]
        assert record["failure"]["attempts"] >= 1
        bye = next(m for m in sent if m["type"] == "bye")
        assert bye["failed"] == 1

    def test_heartbeats_flow_while_idle(self):
        """The daemon thread beats on its own clock, not per spec."""
        sent = []
        control = queue.Queue()
        runner = threading.Thread(
            target=worker_loop,
            args=(shard_doc([], heartbeat=0.01), sent.append, control),
        )
        runner.start()
        time.sleep(0.15)
        control.put({"type": "fin"})
        runner.join(timeout=5)
        assert not runner.is_alive()
        beats = [m for m in sent if m["type"] == "heartbeat"]
        assert beats, "no heartbeat in 150ms at 10ms cadence"
        assert all(b["worker"] == "w0" and b["done"] == 0 for b in beats)


def run_stdio(entries, control_lines):
    """stdio_worker_main over a real pipe held open, like a live ssh
    session (StringIO's instant EOF would look like a dead controller
    and trigger the EOF-means-drain rule before any work ran)."""
    read_fd, write_fd = os.pipe()
    stdin, writer = os.fdopen(read_fd, "r"), os.fdopen(write_fd, "w")
    stdout = io.StringIO()
    try:
        writer.write(json.dumps(shard_doc(entries)) + "\n")
        for line in control_lines:
            writer.write(line + "\n")
        writer.flush()
        code = stdio_worker_main(stdin, stdout)
    finally:
        writer.close()  # now the reader thread sees EOF and exits
        stdin.close()
    return code, [unframe(line) for line in stdout.getvalue().splitlines()]


class TestStdioWorker:
    def test_end_to_end_over_pipe(self):
        code, messages = run_stdio([entry_for()], [frame({"type": "fin"})])
        assert code == 0
        assert all(m is not None for m in messages)  # every line framed
        kinds = [m["type"] for m in messages if m["type"] != "heartbeat"]
        assert kinds == ["hello", "result", "bye"]

    def test_stdin_eof_means_drain(self):
        """Controller gone: stop taking work, say bye, exit cleanly."""
        stdin = io.StringIO(json.dumps(shard_doc([entry_for()])) + "\n")
        stdout = io.StringIO()
        assert stdio_worker_main(stdin, stdout) == 0
        messages = [unframe(line) for line in stdout.getvalue().splitlines()]
        # Whether the drain won the race with the first spec pop or not,
        # the worker must exit cleanly with a final bye.
        assert messages[-1]["type"] == "bye"

    def test_empty_stdin_is_an_error(self):
        assert stdio_worker_main(io.StringIO(""), io.StringIO()) == 2

    def test_garbage_control_lines_ignored(self):
        code, messages = run_stdio(
            [entry_for()],
            ["not a protocol line", frame({"type": "fin"})],
        )
        assert code == 0
        assert any(m["type"] == "result" for m in messages)
