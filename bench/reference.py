"""A fixed reference process that the benchmark times next to every ``dla`` sample.

It does the kinds of work ``dla`` does (interpreter start, JSON encoding and
decoding, dict building, hashing) on inputs that never change, using only the
standard library. Its wall time therefore follows the host's speed and
nothing else; ``loop.Runner`` divides each ``dla`` wall time by it. See
README.md, "Calibrated seconds".
"""

import hashlib
import json
import random

rng = random.Random(20211104)
doc = [
    {
        "id": f"n{i:05d}",
        "kind": rng.choice(("dataset", "website", "collection")),
        "rights": {
            f"r{k}": {"granted": rng.random() < 0.5, "obligations": [{"id": f"o{k % 5}"}]}
            for k in range(12)
        },
    }
    for i in range(700)
]
text = json.dumps(doc, sort_keys=True)
back = json.loads(text)
digest = hashlib.sha256(json.dumps(back, sort_keys=True).encode()).hexdigest()
assert back == doc, "reference round trip"
print(digest)
