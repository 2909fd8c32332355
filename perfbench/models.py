"""The benchmark's own model table: sizes, batches and item counts.

Every model of the training workloads and of the compile-churn job
stream is defined here, against the public ``repro.models`` and
``repro.data`` API only, so that an edit to the older per-figure bench
files can never change what this benchmark measures.  Inputs depend on
the seed alone.
"""

import numpy as np

from repro import data, envs, models, nn


class ModelSpec:
    """One trainable Table-3 model at benchmark scale.

    ``build(seed)`` returns ``(model, loss_fn)`` with freshly seeded
    weights; ``batches(seed)`` returns the list of argument tuples the
    training loop cycles through; ``items(batch)`` counts the unit the
    paper reports per batch (images, words, sentences or frames).
    """

    def __init__(self, name, unit, build, batches, items, lr=0.01):
        self.name = name
        self.unit = unit
        self.build = build
        self.batches = batches
        self.items = items
        self.lr = lr


def _lenet(seed):
    model = models.lenet.LeNet(seed=seed)
    return model, models.lenet.make_loss_fn(model)


def _resnet(seed):
    model = models.resnet.resnet_tiny(seed=seed)
    return model, models.resnet.make_loss_fn(model)


def _inception(seed):
    model = models.inception.InceptionNet(seed=seed)
    return model, models.inception.make_loss_fn(model)


def _pix2pix(seed):
    model = models.pix2pix.Pix2Pix(image_size=16, seed=seed)
    return model, models.pix2pix.make_g_loss_fn(model)


def _lstm(seed):
    model = models.lstm_ptb.LSTMLanguageModel(
        vocab_size=200, embed_dim=32, hidden_dim=64, batch_size=20,
        seed=seed)
    return model, models.lstm_ptb.make_loss_fn(model)


def _lm(seed):
    model = models.lm1b.BigLanguageModel(
        vocab_size=800, embed_dim=64, hidden_dim=128, batch_size=32,
        seed=seed)
    return model, models.lm1b.make_loss_fn(model)


def _treernn(seed):
    model = models.treernn.TreeRNN(seed=seed)
    return model, models.treernn.make_loss_fn(model)


def _treelstm(seed):
    model = models.treelstm.TreeLSTM(seed=seed)
    return model, models.treelstm.make_loss_fn(model)


def _a3c(seed):
    model = models.a3c.ActorCritic(seed=seed)
    return model, models.a3c.make_loss_fn(model)


def _ppo(seed):
    model = models.ppo.PPOAgent(seed=seed)
    return model, models.ppo.make_loss_fn(model)


def _an(seed):
    model = models.gan_an.AdversarialNets(seed=seed)
    return model, models.gan_an.make_d_loss_fn(model)


def _mnist_batches(seed, batch=32):
    ds = data.mnist_like(n=2 * batch, batch_size=batch, seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _imagenet_batches(seed, batch=8):
    ds = data.imagenet_like(n=2 * batch, batch_size=batch, image_size=16,
                            seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


def _facades_batches(seed, batch=2):
    ds = data.facades_like(n=2 * batch, batch_size=batch, image_size=16,
                           seed=seed)
    return [tuple(b) for b in ds.batches(shuffle=False)][:2]


# Corpora only as long as three batches need: the vocabularies of
# ptb_like / one_billion_like, without generating their full streams.
def _ptb_batches(seed):
    corpus = data.markov_corpus(n_tokens=2000, vocab_size=200, seed=seed)
    return list(corpus.bptt_batches(batch_size=20, seq_len=10))[:3]


def _lm_batches(seed):
    corpus = data.markov_corpus(n_tokens=2000, vocab_size=800, seed=seed)
    return list(corpus.bptt_batches(batch_size=32, seq_len=8))[:3]


#: Leaves per tree: every seed gets four trees of each size, so the
#: seed changes the words and shapes but not the amount of work.
TREE_LEAVES = range(3, 10)


def _tree_batches(seed):
    trees = []
    for leaves in TREE_LEAVES:
        trees += data.sst_like(n_trees=4, min_leaves=leaves,
                               max_leaves=leaves, seed=seed * 16 + leaves)
    order = np.random.default_rng(seed).permutation(len(trees))
    return [(trees[i],) for i in order]


#: A3C episode lengths, fixed for the same reason: for each length,
#: episodes are collected until one is long enough, and it is cut there.
A3C_LENGTHS = (12, 16, 20, 24)


def _a3c_batches(seed):
    env = envs.CartPole(seed=seed)
    probe = models.a3c.ActorCritic(seed=seed + 100)
    rng = np.random.RandomState(seed)
    batches = []
    for length in A3C_LENGTHS:
        while True:
            episode = models.a3c.collect_episode(probe, env, rng)
            if len(episode[1]) >= length:
                batches.append(tuple(a[:length] for a in episode))
                break
    return batches


def _ppo_batches(seed, rollouts=2, horizon=64):
    env = envs.PongLite(seed=seed)
    probe = models.ppo.PPOAgent(seed=seed + 100)
    rng = np.random.RandomState(seed)
    return [models.ppo.collect_rollout(probe, env, rng,
                                       horizon=horizon)[:5]
            for _ in range(rollouts)]


def _an_batches(seed, batch=32):
    ds = data.mnist_like(n=batch, batch_size=batch, seed=seed)
    images = next(iter(ds.batches(shuffle=False)))[0]
    z = models.gan_an.sample_latent(np.random.RandomState(seed), batch, 16)
    return [(images, z)]


def _rows(batch):
    return len(batch[0])


def _one(batch):
    return 1


def _words(batch):
    return int(np.asarray(batch[0]).size)


SPECS = {spec.name: spec for spec in (
    ModelSpec("LeNet", "images", _lenet, _mnist_batches, _rows),
    ModelSpec("ResNet", "images", _resnet, _imagenet_batches, _rows),
    ModelSpec("Inception", "images", _inception, _imagenet_batches, _rows),
    ModelSpec("pix2pix", "images", _pix2pix, _facades_batches, _rows),
    ModelSpec("LSTM", "words", _lstm, _ptb_batches, _words),
    ModelSpec("LM", "words", _lm, _lm_batches, _words),
    ModelSpec("TreeRNN", "sentences", _treernn, _tree_batches, _one),
    ModelSpec("TreeLSTM", "sentences", _treelstm, _tree_batches, _one),
    ModelSpec("A3C", "frames", _a3c, _a3c_batches, _rows),
    ModelSpec("PPO", "frames", _ppo, _ppo_batches, _rows),
    ModelSpec("AN", "images", _an, _an_batches, _rows),
)}

#: Conv/matmul-bound models: kernels dominate the step.
CNN_MODELS = ("LeNet", "ResNet", "Inception", "pix2pix")
#: Loops, recursion, variable-length episodes and small kernels:
#: dispatch, guards and executor glue dominate the step.
DYNAMIC_MODELS = ("LSTM", "LM", "TreeRNN", "TreeLSTM", "A3C", "PPO")


def make_optimizer(spec):
    return nn.SGD(spec.lr)
