"""Independent brute-force references used as oracles.

Everything here is a direct transliteration of the rule definitions in
plain Python, sharing no code with the package under test. References
return (selected_set, prediction, fallback_used).
"""

EPS_DISTANCE = 1e-12


def argmax_lowest(values):
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def majority(labels, n_classes):
    counts = [0] * n_classes
    for label in labels:
        counts[label] += 1
    return argmax_lowest(counts)


def brute_knn_indices(points, query, k):
    """Exhaustive scan; ties by insertion order."""
    scored = []
    for i, p in enumerate(points):
        d2 = 0.0
        for a, b in zip(p, query):
            d2 += (a - b) * (a - b)
        scored.append((d2, i))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [i for _, i in scored[: min(k, len(points))]]


def profile_of(proba_rows):
    """Concatenate per-member probability rows into one flat profile."""
    flat = []
    for row in proba_rows:
        flat.extend(row)
    return flat


def knora_e_ref(correctness, query_preds, n_classes):
    n_members = len(correctness)
    width = len(correctness[0]) if n_members else 0
    for m in range(width, 0, -1):
        perfect = [i for i in range(n_members) if all(correctness[i][:m])]
        if perfect:
            pred = majority([query_preds[i] for i in perfect], n_classes)
            return set(perfect), pred, False
    return set(range(n_members)), majority(query_preds, n_classes), True


def knora_u_ref(correctness, query_preds, n_classes):
    n_members = len(correctness)
    weights = [sum(row) for row in correctness]
    if sum(weights) == 0:
        return set(range(n_members)), majority(query_preds, n_classes), True
    votes = [0.0] * n_classes
    for i in range(n_members):
        votes[query_preds[i]] += weights[i]
    selected = {i for i in range(n_members) if weights[i] > 0}
    return selected, argmax_lowest(votes), False


def ola_ref(correctness, query_preds):
    accuracies = [sum(row) / len(row) for row in correctness]
    best = argmax_lowest(accuracies)
    return {best}, query_preds[best], False


def lca_ref(correctness, labels, query_preds):
    competences = []
    for i, row in enumerate(correctness):
        mine = [n for n in range(len(labels)) if labels[n] == query_preds[i]]
        if mine:
            competences.append(sum(row[n] for n in mine) / len(mine))
        else:
            competences.append(0.0)
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def _weights(distances):
    return [1.0 / d if d > 0 else 1.0 / EPS_DISTANCE for d in distances]


def apriori_ref(posteriors, labels, distances, query_preds):
    w = _weights(distances)
    competences = []
    for member in posteriors:
        total = 0.0
        for n in range(len(labels)):
            total += member[n][labels[n]] * w[n]
        competences.append(total / sum(w))
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def aposteriori_ref(posteriors, labels, distances, query_preds):
    w = _weights(distances)
    competences = []
    for i, member in enumerate(posteriors):
        c = query_preds[i]
        numerator = 0.0
        denominator = 0.0
        for n in range(len(labels)):
            mass = member[n][c] * w[n]
            denominator += mass
            if labels[n] == c:
                numerator += mass
        competences.append(numerator / denominator if denominator > 0 else 0.0)
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def mcb_ref(posteriors, correctness, query_preds, sigma=0.7):
    n_members = len(posteriors)
    n_neighbors = len(posteriors[0])
    behaviors = [
        [argmax_lowest(posteriors[i][n]) for i in range(n_members)]
        for n in range(n_neighbors)
    ]
    kept = [
        n
        for n in range(n_neighbors)
        if sum(1 for i in range(n_members) if behaviors[n][i] == query_preds[i])
        / n_members
        >= sigma
    ]
    if not kept:
        kept = list(range(n_neighbors))
    accuracies = [
        sum(correctness[i][n] for n in kept) / len(kept) for i in range(n_members)
    ]
    best = argmax_lowest(accuracies)
    return {best}, query_preds[best], False


def rank_ref(correctness, query_preds):
    ranks = []
    for row in correctness:
        rank = 0
        for value in row:
            if not value:
                break
            rank += 1
        ranks.append(rank)
    best = argmax_lowest(ranks)
    return {best}, query_preds[best], False


def knop_ref(correctness, query_preds, n_classes):
    # Same aggregation as KNORA-U; the neighborhood is located in profile
    # space before the correctness matrix is built.
    return knora_u_ref(correctness, query_preds, n_classes)


def welford_moments(rows, labels, n_classes):
    """Per-class counts, means and sums of squared deviations, one unweighted
    Welford step per row: n += 1; delta = x - mean; mean += delta / n;
    m2 += delta * (x - mean)."""
    n_features = len(rows[0])
    counts = [0.0] * n_classes
    means = [[0.0] * n_features for _ in range(n_classes)]
    m2s = [[0.0] * n_features for _ in range(n_classes)]
    for row, c in zip(rows, labels):
        counts[c] += 1.0
        for j, x in enumerate(row):
            delta = x - means[c][j]
            means[c][j] += delta / counts[c]
            m2s[c][j] += delta * (x - means[c][j])
    return counts, means, m2s
