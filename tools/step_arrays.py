"""Print what the loss (lap u + x y)**2 averaged, of an MLP 2-32-32-1 (tanh)
at 2048 points, makes under a parameter Tape, and what its gradient makes:
the Tape's record count and the owned (..., 2048, 32) arrays of each.
Counts, unlike timings, do not move with host load.  From the repository
root:

    python tools/step_arrays.py
"""

import sys
from pathlib import Path

import numpy as np

N = 2048

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from jno import evaluator as ev, nn, tensor as T, trace as tr

    x, y = tr.variable("x"), tr.variable("y")
    rng = np.random.default_rng(0)
    bindings = {v: rng.uniform(0.0, 1.0, (1, 1, N, 1)) for v in (x, y)}
    net = nn.mlp(2, [32, 32], 1).initialize(0)
    u = net(tr.concat_nodes([x, y], axis=-1))
    loss = (u.dd(x) + u.dd(y) + x * y).mse
    params = list(net.trainable_params().values())
    counts, init = [0], T.Tensor.__init__

    def counted(tensor, data):
        init(tensor, data)
        if tensor.data.shape[-2:] == (N, 32) and tensor.data.base is None:
            counts[-1] += 1

    T.Tensor.__init__ = counted
    with T.Tape() as tape:
        tape.watch(*params)
        value = ev.evaluate(loss, ev.EvalContext(bindings=bindings))
    counts.append(0)
    tape.gradient(value, params)
    T.Tensor.__init__ = init
    print(f"tape records {len(tape.records)}; owned (..., {N}, 32) arrays: "
          f"loss {counts[0]}, gradient {counts[1]}")
