"""The op-script generator and the correctness oracle.

The service only ever receives positional ops generated here, ahead of
time, against a plain copy of the seed document (the *oracle*).  Each
op is valid against the oracle state it was generated from, and the
service's single writer applies ops in submit order, so op ``k`` meets
exactly that state whatever the batch timing: version ``v`` of the
served document is the oracle after its first ``v`` ops.

The oracle runs in a child process (``python oracle.py`` speaking JSON
lines on stdin/stdout) so its tree and the script generator stay out
of the serving process's resident-set high-water mark.  After a run the
child replays the applied prefix and checks every sampled read against
it; :class:`OracleProcess` is the parent's handle on that child.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.query import TABLE3_QUERIES, evaluate_reference
from repro.xmltree import NodeKind, parse_document, parse_fragment
from repro.xmltree.serializer import serialize_document

if __package__:
    from .workloads import seed_xml
else:  # run as the oracle child: ``python oracle.py``
    from workloads import seed_xml

__all__ = [
    "OracleDocument",
    "OracleProcess",
    "check_samples",
    "generate_script",
    "xml_digest",
]

#: Deletes and moves take subtrees of at most this many nodes, which
#: keeps the node count within +-10% of the seed.
MAX_MOVED_NODES = 8

_WORDS = (
    "the king is a thing of nothing what a piece of work is man to be or "
    "not that is the question something is rotten in the state of denmark"
).split()
_NAMES = ("HAMLET", "HORATIO", "OPHELIA", "LAERTES", "POLONIUS", "GERTRUDE")


def xml_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class OracleDocument:
    """A plain tree plus its document order, edited exactly as the
    service's writer would edit the served document."""

    def __init__(self, xml: str) -> None:
        self.document = parse_document(xml)
        self.order = list(self.document.pre_order())

    def __len__(self) -> int:
        return len(self.order)

    def xml(self) -> str:
        return serialize_document(self.document)

    def positions(self) -> dict[int, int]:
        return {id(node): index for index, node in enumerate(self.order)}

    def apply(self, op: dict) -> None:
        kind = op["kind"]
        order = self.order
        if kind == "delete":
            node = order[op["target"]]
            self._cut(node)
            node.detach()
            return
        if kind == "move_before":
            node = order[op["node"]]
            target = order[op["target"]]
            block = self._cut(node)
            node.detach()
            parent = target.parent
            parent.insert_child(parent.index_of_child(target), node)
            at = order.index(target)
            order[at:at] = block
            return
        subtree = parse_fragment(op["xml"], keep_whitespace=True)
        block = list(subtree.pre_order())
        if kind == "insert_child":
            parent = order[op["parent"]]
            index = op.get("index")
            if index is None or index >= len(parent.children):
                at = order.index(parent) + _subtree_size(parent)
                parent.append_child(subtree)
            else:
                at = order.index(parent.children[index])
                parent.insert_child(index, subtree)
        else:
            target = order[op["target"]]
            parent = target.parent
            index = parent.index_of_child(target)
            at = order.index(target)
            if kind == "insert_after":
                at += _subtree_size(target)
                index += 1
            parent.insert_child(index, subtree)
        order[at:at] = block

    def _cut(self, node) -> list:
        at = self.order.index(node)
        size = _subtree_size(node)
        block = self.order[at : at + size]
        del self.order[at : at + size]
        return block


def _subtree_size(node, limit: "int | None" = None) -> int:
    """Nodes under ``node`` (itself included), or ``limit + 1`` once the
    count passes ``limit``."""
    count = 0
    for _ in node.pre_order():
        count += 1
        if limit is not None and count > limit:
            break
    return count


def _fragment(rng: random.Random) -> str:
    words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))
    roll = rng.random()
    if roll < 0.4:
        return (
            f"<speech><speaker>{rng.choice(_NAMES)}</speaker>"
            f"<line>{words}</line></speech>"
        )
    if roll < 0.8:
        return f"<line>{words}</line>"
    return f"<stagedir>{words}</stagedir>"


class _Generator:
    """Draws valid positional ops against an :class:`OracleDocument`."""

    def __init__(self, oracle: OracleDocument, seed) -> None:
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.seed_nodes = len(oracle)

    def element(self):
        """A uniformly drawn element other than the root."""
        order = self.oracle.order
        while True:
            node = order[self.rng.randrange(1, len(order))]
            if node.kind is NodeKind.ELEMENT:
                return node

    def movable(self):
        """An element small enough to delete or move."""
        while True:
            node = self.element()
            if _subtree_size(node, MAX_MOVED_NODES) <= MAX_MOVED_NODES:
                return node

    def next_op(self) -> dict:
        rng = self.rng
        order = self.oracle.order
        # Steer the node count back towards the seed's: the further it
        # has drifted, the more the insert/delete odds lean against it.
        drift = (len(order) - self.seed_nodes) / self.seed_nodes
        if drift < -0.04:
            insert_cut = 0.7
        elif drift < 0:
            insert_cut = 0.45
        elif drift < 0.04:
            insert_cut = 0.25
        else:
            insert_cut = 0.0
        delete_cut = 0.7
        roll = rng.random()
        if roll < insert_cut:
            xml = _fragment(rng)
            flavour = rng.random()
            if flavour < 0.4:
                target = self.element()
                return {
                    "kind": "insert_before",
                    "target": order.index(target),
                    "xml": xml,
                }
            if flavour < 0.7:
                target = self.element()
                return {
                    "kind": "insert_after",
                    "target": order.index(target),
                    "xml": xml,
                }
            parent = self.element()
            attributes = sum(
                1
                for child in parent.children
                if child.kind is NodeKind.ATTRIBUTE
            )
            index = rng.randint(attributes, len(parent.children))
            return {
                "kind": "insert_child",
                "parent": order.index(parent),
                "index": None if index == len(parent.children) else index,
                "xml": xml,
            }
        if roll < delete_cut:
            return {"kind": "delete", "target": order.index(self.movable())}
        node = self.movable()
        while True:
            target = self.element()
            if target is not node and not node.is_ancestor_of(target):
                break
        return {
            "kind": "move_before",
            "node": order.index(node),
            "target": order.index(target),
        }


def generate_script(workload: str, seed: int, count: int) -> "list[dict]":
    """``count`` ops for ``workload``; the same seed gives the same ops."""
    oracle = OracleDocument(seed_xml())
    generator = _Generator(oracle, f"{workload}:{seed}")
    ops = []
    for _ in range(count):
        op = generator.next_op()
        oracle.apply(op)
        ops.append(op)
    return ops


def _relationship_truth(order, first: int, second: int) -> dict:
    node_a, node_b = order[first], order[second]
    return {
        "ancestor": node_a.is_ancestor_of(node_b),
        "descendant": node_b.is_ancestor_of(node_a),
        "parent": node_b.parent is node_a,
        "child": node_a.parent is node_b,
        "sibling": (
            node_a is not node_b
            and node_a.parent is not None
            and node_a.parent is node_b.parent
        ),
    }


def _check_one(oracle: OracleDocument, sample: dict) -> "str | None":
    kind = sample["kind"]
    if kind == "xml":
        if sample["sha256"] != xml_digest(oracle.xml()):
            return "served XML differs from the oracle's"
        return None
    if kind == "query":
        positions = oracle.positions()
        expected = [
            positions[id(node)]
            for node in evaluate_reference(
                oracle.document, TABLE3_QUERIES[sample["query"]]
            )
        ]
        if sample["positions"] != expected:
            return (
                f"{sample['query']} returned {len(sample['positions'])} "
                f"matches, reference has {len(expected)} (or order differs)"
            )
        return None
    if kind == "relationship":
        truth = _relationship_truth(
            oracle.order, sample["first"], sample["second"]
        )
        wrong = sorted(
            name
            for name, value in sample["answer"].items()
            if value is not None and value != truth[name]
        )
        if wrong:
            return f"relationship predicates {wrong} disagree with the tree"
        return None
    return f"unknown sample kind {kind!r}"


def check_samples(
    ops: "list[dict]",
    applied: int,
    samples: "list[dict]",
) -> "tuple[str, list[str]]":
    """Replay ``ops[:applied]`` and check each sample at its version.

    Returns the oracle's final XML and one message per mismatching
    sample (each names the sample's version and kind).
    """
    oracle = OracleDocument(seed_xml())
    mismatches = []
    pending = sorted(samples, key=lambda sample: sample["version"])
    done = 0
    for sample in pending:
        version = sample["version"]
        if not 0 <= version <= applied:
            mismatches.append(
                f"v{version} {sample['kind']}: version outside the "
                f"0..{applied} applied ops"
            )
            continue
        while done < version:
            oracle.apply(ops[done])
            done += 1
        problem = _check_one(oracle, sample)
        if problem is not None:
            mismatches.append(f"v{version} {sample['kind']}: {problem}")
    while done < applied:
        oracle.apply(ops[done])
        done += 1
    return oracle.xml(), mismatches


class OracleProcess:
    """The parent's handle on the oracle child process.

    The child keeps the generated script, so the parent sends it back
    only as a count of applied ops.
    """

    def __init__(self) -> None:
        here = Path(__file__).resolve().parent
        self._child = subprocess.Popen(
            [sys.executable, str(here / "oracle.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )

    def _call(self, request: dict):
        child = self._child
        child.stdin.write(json.dumps(request) + "\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"oracle process exited with code {child.wait()}"
            )
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"oracle process failed: {reply['error']}")
        return reply

    def script(self, workload: str, seed: int, count: int) -> "list[dict]":
        reply = self._call(
            {
                "cmd": "script",
                "workload": workload,
                "seed": seed,
                "count": count,
            }
        )
        return reply["ops"]

    def check(
        self, applied: int, samples: "list[dict]"
    ) -> "tuple[str, list[str]]":
        reply = self._call(
            {"cmd": "check", "applied": applied, "samples": samples}
        )
        return reply["xml"], reply["mismatches"]

    def close(self) -> None:
        child = self._child
        if child.poll() is None:
            child.stdin.close()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()

    def __enter__(self) -> "OracleProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in sys.path if path and Path(path).is_dir()
    )
    return env


def _serve() -> int:
    """The child's loop: one JSON request per stdin line, one reply per
    stdout line, until stdin closes."""
    state: dict = {}
    for line in sys.stdin:
        request = json.loads(line)
        try:
            if request["cmd"] == "script":
                ops = generate_script(
                    request["workload"], request["seed"], request["count"]
                )
                state = {"ops": ops}
                reply = {"ops": ops}
            else:
                xml, mismatches = check_samples(
                    state["ops"],
                    request["applied"],
                    request["samples"],
                )
                reply = {"xml": xml, "mismatches": mismatches}
        except (KeyError, IndexError, ValueError) as error:
            reply = {"error": repr(error)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
