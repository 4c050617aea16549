"""Conformance of ``ServeConfig``, the one description of a server process.

Parametrised over ``dataclasses.fields(ServeConfig)``, so a new flag is
covered with no edit here (as long as its type has a sample value below):

* every field round-trips ``argv()`` -> ``from_argv()`` at a non-default
  value, and the default config spells an empty command line;
* ``for_worker`` changes exactly the eleven front-end and the five spawn
  fields;
* the derived parser is the one ``tests/fixtures/serve-flags.json``
  recorded from the hand-written argparse block it replaced, and for the
  recorded deployments (the three command lines ``benchmarks/e2e`` builds
  among them) every worker's config is what that commit's supervisor
  spelled by hand;
* a flag a worker understands reaches the worker (``--ack-replicas`` and
  ``--ack-timeout`` used to stop at the front end);
* what a worker prints after its banner is relayed, not kept;
* the README's flags table lists exactly the fields.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.cluster.shard import ProcessShard
from repro.cluster.supervisor import ShardSupervisor, WorkerHandle
from repro.obs import log as obs_log
from repro.service import cli
from repro.service.config import FRONT, SPAWN, ServeConfig

RECORDED = json.loads(
    (Path(__file__).parent / "fixtures" / "serve-flags.json").read_text()
)
FIELDS = fields(ServeConfig)
FRONT_ONLY = [spec.name for spec in FIELDS if spec.metadata["scope"] == FRONT]
SPAWNED = [spec.name for spec in FIELDS if spec.metadata["scope"] == SPAWN]
#: One non-default value per field type.
SAMPLES = {"str": "x", "int": 7, "float": 2.5, "bool": True}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _sample(spec):
    return SAMPLES[spec.type.split(" | ")[0]]


def _workers_for(config: ServeConfig, monkeypatch) -> dict:
    """The workers ``python -m repro.service`` builds for ``config``, by
    ``(shard, slot)``, taken through the real ``cli`` ->
    ``ClusterQueryService`` wiring but with no process started.  Every
    primary gets a made-up port so replica command lines can be asked
    for too."""
    built = {}

    def start(self):
        self.handle = WorkerHandle(process=None, port=4242)
        built[self.index, self.slot] = self
        return self

    monkeypatch.setattr(ProcessShard, "start", start)
    cli._open_cluster(config)
    return built


def _worker_config(worker) -> ServeConfig:
    argv = worker.argv()
    assert argv[:3] == [worker.supervisor.python, "-m", "repro.service"]
    return ServeConfig.from_argv(argv[3:])


# --------------------------------------------------------------------------- #
# argv <-> config


@pytest.mark.parametrize("spec", FIELDS, ids=lambda spec: spec.name)
def test_field_round_trips_through_argv(spec):
    config = replace(ServeConfig(), **{spec.name: _sample(spec)})
    argv = config.argv()
    assert argv[0] == _flag(spec.name) and len(argv) == (1 if spec.type == "bool" else 2)
    assert ServeConfig.from_argv(argv) == config


def test_default_config_spells_an_empty_command_line():
    assert ServeConfig().argv() == []
    assert ServeConfig.from_argv([]) == ServeConfig()


def test_for_worker_changes_exactly_the_front_only_and_spawn_fields():
    assert sorted(FRONT_ONLY) == sorted(
        "host port shards replicas max_replica_lag metrics_port max_inflight_queries "
        "max_inflight_ingests slow_query_ms slow_log_file slow_log_max_mb".split()
    )
    assert SPAWNED == ["data_dir", "replica_of", "follower_id", "epoch", "epoch_file"]
    front = ServeConfig(**{spec.name: _sample(spec) for spec in FIELDS})
    spawn = {"data_dir": "/d/shard-00000", "epoch": 3, "epoch_file": "/d/e"}
    worker = front.for_worker(**spawn)
    for spec in FIELDS:
        if spec.name in spawn:
            expected = spawn[spec.name]
        elif spec.name in FRONT_ONLY + SPAWNED:
            expected = spec.default
        else:
            expected = getattr(front, spec.name)
        assert getattr(worker, spec.name) == expected, spec.name
    assert ServeConfig.from_argv(worker.argv()) == worker


# --------------------------------------------------------------------------- #
# The same command line, the same workers as before the dataclass


def test_derived_parser_is_the_recorded_one():
    actions = [a for a in ServeConfig.parser()._actions if a.dest != "help"]
    derived = [
        {
            "dest": action.dest,
            "option_strings": action.option_strings,
            "type": None if action.type is None else action.type.__name__,
            "default": action.default,
            "help": action.help,
            "metavar": action.metavar,
            "flag": action.nargs == 0,
        }
        for action in actions
    ]
    recorded = [dict(flag) for flag in RECORDED["flags"]]
    # The one recorded difference: unset is now told from an explicit 0
    # (ServeConfig.acks resolves unset to 0 on a node, exactly as before).
    (ack,) = [flag for flag in recorded if flag["dest"] == "ack_replicas"]
    assert ack["default"] == 0
    ack["default"] = None
    assert derived == recorded
    assert [action.dest for action in actions] == [spec.name for spec in FIELDS]


@pytest.mark.parametrize("name", RECORDED["deployments"])
def test_workers_run_with_what_the_parent_spawned_them_with(name, tmp_path, monkeypatch):
    deployment = RECORDED["deployments"][name]
    root = str(tmp_path / "root")

    def placed(argv):
        return [arg.replace("{root}", root) for arg in argv]

    config = ServeConfig.from_argv(placed(deployment["front"]))
    assert ServeConfig.from_argv(config.argv()) == config
    if not deployment["workers"]:
        assert config.shards == 1 and config.replicas == 0  # a node: no workers
        return
    workers = _workers_for(config, monkeypatch)
    for worker in deployment["workers"]:
        ours = _worker_config(workers[worker["index"], worker["replica"]])
        assert ours == ServeConfig.from_argv(placed(worker["argv"]))


@pytest.mark.parametrize(
    "given, acks, timeout",
    [
        (["--ack-replicas", "0", "--ack-timeout", "5"], 0, 5.0),
        ([], 1, 30.0),  # semi-synchronous unless told otherwise
    ],
)
def test_ack_flags_reach_the_workers(given, acks, timeout, tmp_path, monkeypatch):
    front = ["--shards", "2", "--replicas", "1", "--data-dir", str(tmp_path / "root")]
    workers = _workers_for(ServeConfig.from_argv(front + given), monkeypatch)
    for replica in (None, 0):
        worker = _worker_config(workers[1, replica])
        assert worker.ack_replicas == acks and worker.acks == acks
        assert worker.ack_timeout == timeout


def test_a_node_acknowledges_without_followers_unless_told_to_wait():
    assert ServeConfig().acks == 0
    assert ServeConfig(ack_replicas=2).acks == 2
    assert ServeConfig(shards=2).for_worker().ack_replicas is None


# --------------------------------------------------------------------------- #
# Worker output after the banner


@pytest.mark.slow
def test_worker_output_after_the_banner_is_relayed_not_kept(tmp_path, capsys):
    supervisor = ShardSupervisor(
        # An idle worker's only output: one debug line per skipped checkpoint.
        worker=ServeConfig(checkpoint_interval=0.1),
        extra_env={"REPRO_LOG_LEVEL": "debug"},
    )
    banners = []
    await_port = supervisor._await_port

    def recording(*args):
        port, banner = await_port(*args)
        banners.append(banner)
        return port, banner

    supervisor._await_port = recording
    worker = ProcessShard(0, supervisor, tmp_path / "shard")
    previous = obs_log.set_level("debug")
    try:
        worker.start()
        relayed = []
        deadline = time.monotonic() + 30.0
        while not relayed and time.monotonic() < deadline:
            time.sleep(0.05)
            lines = capsys.readouterr().err.splitlines()
            assert not any(line.startswith("listening on") for line in lines)
            relayed = [
                entry
                for entry in map(json.loads, lines)
                if entry["component"] == "worker"
            ]
    finally:
        obs_log.set_level(previous)
        worker.close()
        if worker.handle is not None:
            supervisor.stop([worker.handle])
    entry = relayed[0]
    assert (entry["event"], entry["shard"], entry["slot"]) == ("worker_output", 0, None)
    assert entry["level"] == "debug"
    assert json.loads(entry["line"])["event"] == "checkpoint_skipped"
    # Nothing a worker says after its banner is held on to.
    (banner,) = banners
    assert banner[-1].startswith("listening on")
    assert not any("checkpoint_skipped" in line for line in banner)


# --------------------------------------------------------------------------- #
# README


def test_readme_flags_table_lists_exactly_the_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("<!-- serve-flags:begin -->")[1].split("<!-- serve-flags:end -->")[0]
    rows = re.findall(
        r"^\| `(--[\w-]+)` \| `([^`]*)` \| ([^|]+?) \| (.*) \|$", section, flags=re.MULTILINE
    )
    assert [row[:3] for row in rows] == [
        (_flag(spec.name), str(spec.default), spec.metadata["scope"]) for spec in FIELDS
    ]
    for spec, row in zip(FIELDS, rows):
        if spec.metadata["help"]:  # a row may say more than --help does, not less
            said = spec.metadata["help"] % {"default": spec.default}
            assert " ".join(said.split()) in row[3], spec.name
