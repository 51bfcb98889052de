"""Work-proportionality guard for the interval close.

Counts, not clocks: how many times the close decrypts, looks a holding up
in the message, draws from the generator.  They are exact and repeat on
every run; code that goes back to scanning the whole message per hop, or
to one generator call per key, fails here without a wall clock.
"""

import numpy as np
import pytest

from repro.core import splitting
from repro.core.group import SecureGroup
from repro.core.ids import NULL_ID, Id
from repro.core.splitting import run_split_rekey
from repro.core.tmesh import OverlayEdge, Receipt, SessionResult
from repro.crypto import cipher
from repro.keytree.keys import Encryption, RekeyMessage
from repro.keytree.modified_tree import ModifiedKeyTree
from tests.conftest import SMALL_SCHEME

MEMBERS = 40


@pytest.fixture()
def group(gtitm):
    group = SecureGroup(gtitm, server_host=gtitm.num_hosts - 1, seed=20)
    for host in range(MEMBERS):
        group.join(host)
    group.end_interval()
    return group


def churn(group, rng, free):
    ids = sorted(group.members)
    for i in rng.choice(len(ids), 5, replace=False):
        free.append(group.leave(ids[int(i)]).host)
    for _ in range(5):
        group.join(free.pop(0))


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_every_decrypt_installs_a_key_and_no_needed_key_is_skipped(
    group, monkeypatch
):
    decrypts = counting(monkeypatch, cipher, "decrypt")
    rng = np.random.default_rng(1)
    free = list(range(MEMBERS, group.topology.num_hosts - 1))
    for _ in range(4):
        churn(group, rng, free)
        held = {uid: len(m.keystore.secrets) for uid, m in group.members.items()}
        del decrypts[:]
        report = group.end_interval()
        installed = sum(
            len(m.keystore.secrets) - held[uid] for uid, m in group.members.items()
        )
        updated = {e.new_key_id for e in report.message.encryptions}
        owed = sum(
            len(updated.intersection(m.path_key_ids)) for m in group.members.values()
        )
        assert len(decrypts) == installed == owed == report.total_sent > 0
        # Lemma 3 said which ones before any ciphertext was touched.
        assert report.total_sent <= sum(report.delivered_encryptions.values())


def test_close_never_runs_the_per_hop_scan(group, monkeypatch):
    def scan(*args):
        raise AssertionError("split_for_next_hop called from the close")

    monkeypatch.setattr(splitting, "split_for_next_hop", scan)
    churn(group, np.random.default_rng(2), list(range(MEMBERS, 48)))
    report = group.end_interval()
    assert report.rekey_cost > 0 and report.incomplete == ()


def test_split_looks_each_distinct_holding_up_once(group, monkeypatch):
    lookups = counting(monkeypatch, splitting._MessageIndex, "_lookup")
    churn(group, np.random.default_rng(3), list(range(MEMBERS, 48)))
    report = group.end_interval()
    assert report.rekey_cost > 0
    holdings = [args[1:] for args in lookups]
    assert len(holdings) == len(set(holdings)) <= MEMBERS


def test_hops_into_one_subtree_share_one_lookup(monkeypatch):
    """Three copies into the subtree [0,1] (as K > 1 backups or
    duplicates make them) and two out of it again: one lookup each."""
    lookups = counting(monkeypatch, splitting._MessageIndex, "_lookup")
    a, b, c = Id((0, 1, 0)), Id((0, 1, 1)), Id((0, 0, 0))
    edges = [
        OverlayEdge(NULL_ID, a, 0, 0, 1, 0.0, 1.0),
        OverlayEdge(NULL_ID, b, 0, 0, 1, 0.0, 2.0),
        OverlayEdge(NULL_ID, a, 0, 0, 1, 0.5, 3.0),
        OverlayEdge(a, c, 0, 0, 1, 1.0, 4.0),
        OverlayEdge(b, c, 0, 0, 1, 2.0, 5.0),
    ]
    receipts = {
        a: Receipt(a, 0, 1.0, 2, NULL_ID),
        b: Receipt(b, 0, 2.0, 2, NULL_ID),
        c: Receipt(c, 0, 4.0, 2, a),
    }
    message = RekeyMessage(
        0,
        tuple(
            Encryption(Id(d), 0, Id(d[:-1]), 1)
            for d in [(0,), (0, 0), (0, 1), (0, 1, 0), (0, 1, 1)]
        ),
    )
    result = run_split_rekey(SessionResult(NULL_ID, 0, receipts, edges), message)
    assert [load for _, load in result.edge_loads] == [4, 4, 4, 1, 1]
    assert [args[1:] for args in lookups] == [(False, (0, 1)), (True, (0,))]


class CountingGenerator:
    """A Generator seen through the one method the key tree may call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def bytes(self, n):
        self.draws.append(n)
        return self.rng.bytes(n)


def test_batch_draws_from_the_generator_once():
    rng = CountingGenerator(4)
    tree = ModifiedKeyTree(SMALL_SCHEME, crypto=True, rng=rng)
    ids = [Id((a, b, c)) for a in range(3) for b in range(2) for c in range(2)]
    for uid in ids:
        tree.request_join(uid)
    del rng.draws[:]
    message = tree.process_batch()
    updated = {e.new_key_id for e in message.encryptions}
    assert rng.draws == [32 * (len(updated) + message.rekey_cost)]

    for uid in ids[::3]:
        tree.request_leave(uid)
    del rng.draws[:]
    message = tree.process_batch()
    updated = {e.new_key_id for e in message.encryptions}
    assert rng.draws == [32 * (len(updated) + message.rekey_cost)]

    del rng.draws[:]
    assert tree.process_batch().rekey_cost == 0
    assert rng.draws == []
