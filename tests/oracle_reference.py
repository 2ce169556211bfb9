"""The oracle's next-token distribution written out from the kernel, shared by the tests.

``argmax_token`` is the greedy decode as first written, the argmax of the
full log-probability vector: a reference that shares nothing with
``OracleModel.greedy_tokens`` but the kernel's probability.
"""

import math

import numpy as np

from simulgain.synth import oracle_states


def correct_token_prob(oracle, utt, t_s, n):
    """Probability the oracle puts on the correct pending token n at time t_s."""
    return float(oracle_states(oracle.config, [t_s], utt.boundaries_s[[n]])[0][0])


def logprob(oracle, utt, t_s, n):
    """Full next-token log-probability vector: log p on the target, log((1 - p) / (V - 1)) elsewhere."""
    p = correct_token_prob(oracle, utt, t_s, n)
    vocab = oracle.config.vocab_size
    out = np.full(vocab, math.log((1.0 - p) / (vocab - 1)))
    out[int(utt.target_tokens[n])] = math.log(p)
    return out


def argmax_token(oracle, utt, t_s, n):
    """The greedy decode as first written: argmax of the full log-probability vector."""
    return int(np.argmax(logprob(oracle, utt, t_s, n)))
