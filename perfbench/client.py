"""Open-loop Poisson client for the ``serve-durable`` workload.

Runs as its own process over one unix-socket connection.  It builds
the request stream from the workload seed (the server only ever sees
the submitted frames), sends request ``i`` at its due time
``t0 + release_i * time_scale`` whatever the acks do, and times every
request from that due time, not from when it was actually sent.  After
the last ack it drains the server and reads its ``wall_flow`` stats.
A second connection reads the same stats every :data:`WINDOW_S`
seconds, so the realised flow is also known window by window.

Prints one JSON object on stdout::

    python3 perfbench/client.py --socket S --n N --seed 1 --time-scale 0.014
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.driver import build_drive_instance  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    encode_frame,
    read_frame,
    task_to_wire,
    versioned,
)

#: The ``serve-durable`` request stream: 8 machines, k=3 overlapping
#: replicas, unit service time, offered load 0.7.
M = 8
K = 3
LOAD = 0.7
VIRTUAL_RATE = LOAD * M  # arrivals per service time
#: How long the client waits for outstanding acks after the last send.
ACK_TIMEOUT_S = 60.0
#: Seconds between reads of the server's realised flow.
WINDOW_S = 0.5


def drive_instance(n: int, seed: int):
    return build_drive_instance(m=M, n=n, rate=VIRTUAL_RATE, k=K, proc=1.0, seed=seed)


def _wall_flow(stats: dict | None) -> dict:
    return ((stats or {}).get("stats") or {}).get("metrics", {}).get("histograms", {}).get(
        "wall_flow", {}
    )


async def poll_flow(socket_path: str, t0: float, t_last: float, samples: list) -> None:
    """Append the server's cumulative wall_flow (count, sum) every
    :data:`WINDOW_S` seconds until the last request is due."""
    reader, writer = await asyncio.open_unix_connection(path=socket_path)
    loop = asyncio.get_running_loop()
    try:
        at = t0 + WINDOW_S
        while at <= t_last:
            await asyncio.sleep(max(0.0, at - loop.time()))
            writer.write(encode_frame({"op": "stats"}))
            wall = _wall_flow(await read_frame(reader))
            samples.append((wall.get("count", 0), wall.get("sum", 0.0)))
            at += WINDOW_S
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def run(socket_path: str, n: int, seed: int, time_scale: float) -> dict:
    tasks = list(drive_instance(n, seed))
    frames = [encode_frame(versioned({"op": "submit", **task_to_wire(t)})) for t in tasks]
    reader, writer = await asyncio.open_unix_connection(path=socket_path)
    loop = asyncio.get_running_loop()
    acks: list[tuple[float, dict | None]] = []

    async def collect() -> None:
        for _ in range(n):
            msg = await read_frame(reader)
            acks.append((loop.time(), msg))
            if msg is None:
                return

    collector = loop.create_task(collect())
    lags: list[float] = []
    t0 = loop.time() + 0.05
    dues = [t0 + t.release * time_scale for t in tasks]
    # Cumulative (count, sum) of the server's wall_flow histogram at
    # every window boundary, read over a second connection.
    samples: list[tuple[int, float]] = [(0, 0.0)]
    poller = loop.create_task(poll_flow(socket_path, t0, dues[-1], samples))
    try:
        for due, frame in zip(dues, frames):
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(frame)
            lags.append(loop.time() - due)
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        await writer.drain()
        stats = None
        try:
            await asyncio.wait_for(asyncio.shield(collector), timeout=ACK_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # the missing acks count as failed requests
        else:
            await poller
            writer.write(encode_frame({"op": "drain"}))
            await read_frame(reader)
            writer.write(encode_frame({"op": "stats"}))
            stats = await read_frame(reader)
    finally:
        collector.cancel()
        poller.cancel()
        await asyncio.gather(collector, poller, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    ack_ms: list[float] = []
    est_flows: list[float] = []
    pairs: list[tuple[int, int]] = []
    n_bad = 0
    for (t_ack, msg), due, task in zip(acks, dues, tasks):
        if msg is None or not msg.get("ok") or msg.get("status") != "dispatched":
            n_bad += 1
            continue
        if msg.get("tid") != task.tid:
            n_bad += 1
            continue
        ack_ms.append((t_ack - due) * 1e3)
        est_flows.append(float(msg["est_flow"]))
        pairs.append((task.tid, int(msg["machine"])))
    wall = _wall_flow(stats)
    if wall.get("count"):
        samples.append((wall["count"], wall["sum"]))
    windows = [
        (s1 - s0) / (c1 - c0) for (c0, s0), (c1, s1) in zip(samples, samples[1:]) if c1 > c0
    ]
    return {
        "n": n,
        "n_bad": n_bad + (n - len(acks)),
        "ack_ms": ack_ms,
        "lag_ms": [x * 1e3 for x in lags],
        "est_flow_mean": sum(est_flows) / len(est_flows) if est_flows else None,
        "wall_flow_mean": wall["sum"] / wall["count"] if wall.get("count") else None,
        "wall_flow_max": wall.get("max"),
        "window_flow_means": windows,
        "assignments": pairs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--socket", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--time-scale", type=float, required=True)
    args = p.parse_args(argv)
    result = asyncio.run(run(args.socket, args.n, args.seed, args.time_scale))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
