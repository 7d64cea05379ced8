/* C accelerator for the repro.sim event kernel.
 *
 * Four pieces, all optional (repro.sim._accel builds this module on
 * first use when a C compiler is available; without it the kernel runs
 * on the pure-Python repro.sim.equeue.HeapQueue and the Python dispatch
 * loop in repro.sim.core):
 *
 *   - CalQ: a calendar / timing-wheel event queue with the same cohort
 *     contract as equeue.HeapQueue, producing the identical dispatch
 *     order ``(t, priority, arrival)``.
 *   - TimeoutFn: a callable installed as ``sim.timeout`` (and, in its
 *     hop form, as ``sim.urgent_hop``) that performs the pooled-Timeout
 *     fast path without entering the interpreter.
 *   - GrantFn: ``request`` / ``release`` of a ``Resource(capacity=1)``
 *     (the NIC sides), installed per instance when the simulator does
 *     not sanitize.
 *   - drive(): the dispatch loop of Simulator._drive.  It runs
 *     Event._process for every event kind, and every bound
 *     Process._resume callback runs in C around ``generator.send`` /
 *     ``throw`` (a generator's return becomes an inlined URGENT
 *     ``succeed``).
 *
 * All simulation *semantics* stay in the Python classes -- this file
 * only mirrors the exact hot-path steps of Simulator._drive,
 * Event._process and Process._resume, and calls back into Python for
 * every cold case: other callbacks (``_Condition._check``, interrupt
 * delivery), ``fail``, ``_resume_tail`` for an already-processed or
 * non-event yield, and any Event subclass that overrides ``_process``.
 * Slot access uses member-descriptor offsets resolved at setup() time,
 * so the Python class layout remains the single source of truth.
 *
 * drive() and GrantFn are only used when the sanitizer is off (the
 * sanitizer needs a per-event Python hook); the Python loop in core.py
 * drives this queue through its visible pop_cohort / requeue_front
 * methods in that case.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

#define FAR_T 1e300
#define IDLE_PRIO (1L << 30)
#define POOL_MAX 4096
#define RESIZE_CHECK 64
#define N0 64

/* ------------------------------------------------------------------ state */

typedef struct {
    double t;
    long prio;
    PyObject *list; /* owned: PyList of events, push order */
} Band;

typedef struct {
    double t;
    long prio;
    long long seq; /* signed: requeued entries use negative "front" seqs */
    PyObject *ev;  /* owned */
} HeapEnt;

typedef struct {
    HeapEnt *e;
    Py_ssize_t len, cap;
} MiniHeap;

typedef struct {
    PyObject_HEAD
    Band **buckets; /* n growable band arrays */
    int *blen;
    int *bcap;
    long n;
    long mask;
    double width, inv_w;
    long long cur_k, far_k;
    Py_ssize_t count;     /* events in buckets (not overflow/past) */
    MiniHeap ov;          /* far-future entries, (t, prio, seq) order */
    MiniHeap past;        /* behind-the-cursor (erroneous) entries */
    long long oseq;       /* ascending for normal overflow pushes */
    long long front_seq;  /* descending for requeue_front */
    /* push-side band cache */
    double band_t;
    long band_prio;
    PyObject *band_list; /* borrowed (owned by its bucket) */
    /* active cohort */
    double active_t;
    long active_prio;
    PyObject *active_list; /* owned */
    double now; /* mirror of sim._now for TimeoutFn */
    /* resize policy */
    long pops;
    double gap_ewma;
    double last_t;
    long resizes;
} CalQ;

/* resolved at setup() */
static Py_ssize_t off_value, off_processed, off_callbacks, off_delay,
    off_send, off_target, off_resume_cb, off_sim, off_ok, off_defused,
    off_triggered, off_throw, off_gen;
static PyObject *EventType = NULL, *TimeoutType = NULL, *ProcessType = NULL,
    *SimError = NULL;
static PyObject *resume_func = NULL;  /* Process._resume (plain function) */
static PyObject *process_func = NULL; /* Event._process (plain function) */
static PyObject *long_urgent = NULL; /* int(0) */
static PyObject *str_process, *str_resume_tail, *str_succeed, *str_fail,
    *str_now, *str_active, *str_append, *str_popleft, *str_remove,
    *str_watchdog;

#define SLOT(ob, off) (*(PyObject **)((char *)(ob) + (off)))

static void slot_set(PyObject *ob, Py_ssize_t off, PyObject *v) /* steals v */
{
    PyObject *old = SLOT(ob, off);
    SLOT(ob, off) = v;
    Py_XDECREF(old);
}

/* --------------------------------------------------------------- MiniHeap */

static int mh_less(const HeapEnt *a, const HeapEnt *b)
{
    if (a->t != b->t) return a->t < b->t;
    if (a->prio != b->prio) return a->prio < b->prio;
    return a->seq < b->seq;
}

static int mh_push(MiniHeap *h, double t, long prio, long long seq,
                   PyObject *ev /* steals */)
{
    if (h->len == h->cap) {
        Py_ssize_t nc = h->cap ? h->cap * 2 : 16;
        HeapEnt *nv = PyMem_Realloc(h->e, (size_t)nc * sizeof(HeapEnt));
        if (!nv) {
            Py_DECREF(ev);
            PyErr_NoMemory();
            return -1;
        }
        h->e = nv;
        h->cap = nc;
    }
    Py_ssize_t i = h->len++;
    HeapEnt ent = {t, prio, seq, ev};
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (!mh_less(&ent, &h->e[p])) break;
        h->e[i] = h->e[p];
        i = p;
    }
    h->e[i] = ent;
    return 0;
}

static HeapEnt mh_pop(MiniHeap *h)
{
    HeapEnt top = h->e[0];
    HeapEnt last = h->e[--h->len];
    Py_ssize_t i = 0, n = h->len;
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && mh_less(&h->e[c + 1], &h->e[c])) c++;
        if (!mh_less(&h->e[c], &last)) break;
        h->e[i] = h->e[c];
        i = c;
    }
    if (n) h->e[i] = last;
    return top;
}

/* ----------------------------------------------------------------- CalQ */

static PyTypeObject CalQ_Type;

static PyObject *calq_alloc_tables(CalQ *q, long n)
{
    q->buckets = PyMem_Calloc((size_t)n, sizeof(Band *));
    q->blen = PyMem_Calloc((size_t)n, sizeof(int));
    q->bcap = PyMem_Calloc((size_t)n, sizeof(int));
    if (!q->buckets || !q->blen || !q->bcap) return PyErr_NoMemory();
    q->n = n;
    q->mask = n - 1;
    return Py_None; /* borrowed truthy sentinel */
}

static PyObject *CalQ_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CalQ *q = (CalQ *)type->tp_alloc(type, 0);
    if (!q) return NULL;
    q->width = 1.0;
    q->inv_w = 1.0;
    if (!calq_alloc_tables(q, N0)) {
        Py_DECREF(q);
        return NULL;
    }
    q->cur_k = 0;
    q->far_k = q->n;
    q->band_t = -1.0;
    q->band_prio = -1;
    q->active_t = -1.0;
    q->active_prio = IDLE_PRIO;
    q->gap_ewma = 1.0;
    /* tp_alloc (PyType_GenericAlloc) already GC-tracks the object */
    return (PyObject *)q;
}

static void calq_free_tables(CalQ *q)
{
    for (long i = 0; i < q->n; i++) {
        for (int j = 0; j < q->blen[i]; j++) Py_XDECREF(q->buckets[i][j].list);
        PyMem_Free(q->buckets[i]);
    }
    PyMem_Free(q->buckets);
    PyMem_Free(q->blen);
    PyMem_Free(q->bcap);
    q->buckets = NULL;
    q->blen = NULL;
    q->bcap = NULL;
    q->n = 0;
    q->mask = 0;
    q->count = 0;
}

static int CalQ_traverse(CalQ *q, visitproc visit, void *arg)
{
    for (long i = 0; i < q->n; i++)
        for (int j = 0; j < q->blen[i]; j++) Py_VISIT(q->buckets[i][j].list);
    for (Py_ssize_t i = 0; i < q->ov.len; i++) Py_VISIT(q->ov.e[i].ev);
    for (Py_ssize_t i = 0; i < q->past.len; i++) Py_VISIT(q->past.e[i].ev);
    Py_VISIT(q->active_list);
    return 0;
}

static int CalQ_clear(CalQ *q)
{
    calq_free_tables(q);
    for (Py_ssize_t i = 0; i < q->ov.len; i++) Py_XDECREF(q->ov.e[i].ev);
    for (Py_ssize_t i = 0; i < q->past.len; i++) Py_XDECREF(q->past.e[i].ev);
    q->ov.len = 0;
    q->past.len = 0;
    PyMem_Free(q->ov.e);
    PyMem_Free(q->past.e);
    q->ov.e = NULL;
    q->past.e = NULL;
    q->ov.cap = q->past.cap = 0;
    Py_CLEAR(q->active_list);
    q->band_list = NULL;
    return 0;
}

static void CalQ_dealloc(CalQ *q)
{
    PyObject_GC_UnTrack(q);
    CalQ_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

/* Slot index for t.  The raw double->long long cast is undefined once
 * t * inv_w exceeds LLONG_MAX (e.g. t = 5e299 with width 1.0 -- on x86
 * it yields LLONG_MIN, which would misfile the entry in the *past*
 * heap).  Clamp far below the limit: everything at or beyond the clamp
 * shares one distant slot, so it stays in the overflow heap until the
 * cursor gets there and degenerates gracefully (one shared bucket,
 * min-scan still picks the earliest band) if it ever does. */
#define SLOT_CLAMP 4.5e18
static inline long long slot_of(const CalQ *q, double t)
{
    double kd = t * q->inv_w;
    return kd >= SLOT_CLAMP ? (long long)SLOT_CLAMP : (long long)kd;
}

static PyObject *bucket_band(CalQ *q, long b, double t, long prio)
{
    Band *arr = q->buckets[b];
    int len = q->blen[b];
    for (int i = 0; i < len; i++)
        if (arr[i].t == t && arr[i].prio == prio) return arr[i].list;
    if (len == q->bcap[b]) {
        int nc = q->bcap[b] ? q->bcap[b] * 2 : 4;
        Band *na = PyMem_Realloc(arr, (size_t)nc * sizeof(Band));
        if (!na) return PyErr_NoMemory();
        q->buckets[b] = arr = na;
        q->bcap[b] = nc;
    }
    PyObject *list = PyList_New(0);
    if (!list) return NULL;
    arr[len].t = t;
    arr[len].prio = prio;
    arr[len].list = list;
    q->blen[b] = len + 1;
    return list;
}

static int calq_push_slow(CalQ *q, double t, long prio, PyObject *ev);

static int calq_requeue_band(CalQ *q, double t, long prio,
                             PyObject *events /* borrowed list, may hold None */)
{
    Py_ssize_t n = PyList_GET_SIZE(events);
    Py_ssize_t nrem = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        if (PyList_GET_ITEM(events, i) != Py_None) nrem++;
    if (!nrem) return 0;
    if (t < FAR_T) {
        long long k = slot_of(q, t);
        if (k >= q->cur_k && k < q->far_k) {
            long b = (long)(k & q->mask);
            PyObject *band = bucket_band(q, b, t, prio);
            if (!band) return -1;
            /* prepend, preserving order, ahead of newer same-band pushes */
            Py_ssize_t at = 0;
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *e = PyList_GET_ITEM(events, i);
                if (e == Py_None) continue;
                if (PyList_Insert(band, at++, e) < 0) return -1;
            }
            q->count += nrem;
            return 0;
        }
    }
    /* past or overflow heap: negative front seqs keep these ahead */
    MiniHeap *h;
    if (t < FAR_T && slot_of(q, t) < q->cur_k)
        h = &q->past;
    else
        h = &q->ov;
    long long base = q->front_seq - (long long)nrem;
    long long s = base + 1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *e = PyList_GET_ITEM(events, i);
        if (e == Py_None) continue;
        Py_INCREF(e);
        if (mh_push(h, t, prio, s++, e) < 0) return -1;
    }
    q->front_seq = base;
    return 0;
}

static int calq_preempt(CalQ *q, double t, long prio, PyObject *ev)
{
    PyObject *act = q->active_list;
    double at = q->active_t;
    long ap = q->active_prio;
    q->active_prio = IDLE_PRIO;
    q->active_list = NULL;
    q->band_t = -1.0;
    q->band_list = NULL;
    if (act != NULL) {
        /* own the sole reference that active_list held */
        if (calq_requeue_band(q, at, ap, act) < 0) {
            Py_DECREF(act);
            return -1;
        }
        /* clear in place: the driver's loop over this list terminates */
        if (PyList_SetSlice(act, 0, PyList_GET_SIZE(act), NULL) < 0) {
            Py_DECREF(act);
            return -1;
        }
        Py_DECREF(act);
    }
    return calq_push_slow(q, t, prio, ev);
}

static int calq_push_slow(CalQ *q, double t, long prio, PyObject *ev)
{
    if (t < FAR_T) {
        long long k = slot_of(q, t);
        if (k < q->far_k) {
            if (k < q->cur_k) {
                Py_INCREF(ev);
                return mh_push(&q->past, t, prio, ++q->oseq, ev);
            }
            long b = (long)(k & q->mask);
            PyObject *band = bucket_band(q, b, t, prio);
            if (!band) return -1;
            if (PyList_Append(band, ev) < 0) return -1;
            q->count++;
            q->band_t = t;
            q->band_prio = prio;
            q->band_list = band;
            return 0;
        }
    }
    Py_INCREF(ev);
    return mh_push(&q->ov, t, prio, ++q->oseq, ev);
}

static int calq_push(CalQ *q, double t, long prio, PyObject *ev /* borrowed */)
{
    if (t == q->band_t && prio == q->band_prio) {
        if (PyList_Append(q->band_list, ev) < 0) return -1;
        q->count++;
        return 0;
    }
    if (prio < q->active_prio && t == q->active_t)
        return calq_preempt(q, t, prio, ev);
    return calq_push_slow(q, t, prio, ev);
}

static int calq_migrate(CalQ *q)
{
    MiniHeap *ov = &q->ov;
    while (ov->len) {
        double t = ov->e[0].t;
        if (t >= FAR_T) break;
        long long k = slot_of(q, t);
        if (k >= q->far_k) break;
        HeapEnt e = mh_pop(ov);
        long b = (long)(k & q->mask);
        PyObject *band = bucket_band(q, b, e.t, e.prio);
        if (!band) {
            Py_DECREF(e.ev);
            return -1;
        }
        int rc = PyList_Append(band, e.ev);
        Py_DECREF(e.ev);
        if (rc < 0) return -1;
        q->count++;
    }
    return 0;
}

static int calq_rebuild(CalQ *q, long new_n, double new_w);

static int calq_maybe_resize(CalQ *q)
{
    long n = q->n;
    long new_n = n;
    if (q->count > 2 * (Py_ssize_t)n)
        new_n = n * 2;
    else if (q->count < (Py_ssize_t)(n / 8) && n > N0)
        new_n = n / 2;
    double gap = q->gap_ewma;
    double new_w = q->width;
    if (gap > 0.0 && (gap > q->width * 4.0 || gap < q->width * 0.25)) {
        double l = log2(gap);
        new_w = pow(2.0, (double)llround(l));
        if (new_w < 1e-9) new_w = 1e-9;
        if (new_w > 1e9) new_w = 1e9;
    }
    if (new_n != n || new_w != q->width) return calq_rebuild(q, new_n, new_w);
    return 0;
}

static int calq_rebuild(CalQ *q, long new_n, double new_w)
{
    Band *all = NULL;
    Py_ssize_t nb = 0, cap = 0;
    for (long i = 0; i < q->n; i++) {
        for (int j = 0; j < q->blen[i]; j++) {
            if (nb == cap) {
                cap = cap ? cap * 2 : 64;
                Band *na = PyMem_Realloc(all, (size_t)cap * sizeof(Band));
                if (!na) {
                    PyMem_Free(all);
                    PyErr_NoMemory();
                    return -1;
                }
                all = na;
            }
            all[nb++] = q->buckets[i][j]; /* list refs move to `all` */
        }
        q->blen[i] = 0;
    }
    calq_free_tables(q); /* band lists now owned solely by `all` */
    if (!calq_alloc_tables(q, new_n)) {
        for (Py_ssize_t i = 0; i < nb; i++) Py_XDECREF(all[i].list);
        PyMem_Free(all);
        return -1;
    }
    q->width = new_w;
    q->inv_w = 1.0 / new_w;
    q->band_t = -1.0;
    q->band_list = NULL;
    double min_t;
    if (nb) {
        min_t = all[0].t;
        for (Py_ssize_t i = 1; i < nb; i++)
            if (all[i].t < min_t) min_t = all[i].t;
    } else if (q->ov.len && q->ov.e[0].t < FAR_T) {
        min_t = q->ov.e[0].t;
    } else {
        min_t = q->last_t;
    }
    long long k0 = slot_of(q, min_t);
    q->cur_k = k0;
    q->far_k = k0 + new_n;
    for (Py_ssize_t i = 0; i < nb; i++) {
        double t = all[i].t;
        long long k = slot_of(q, t);
        if (k < q->far_k) {
            long b = (long)(k & q->mask);
            /* same t implies same k, so no existing band can collide */
            Band *arr = q->buckets[b];
            if (q->blen[b] == q->bcap[b]) {
                int nc = q->bcap[b] ? q->bcap[b] * 2 : 4;
                Band *na = PyMem_Realloc(arr, (size_t)nc * sizeof(Band));
                if (!na) {
                    for (Py_ssize_t j = i; j < nb; j++) Py_XDECREF(all[j].list);
                    PyMem_Free(all);
                    PyErr_NoMemory();
                    return -1;
                }
                q->buckets[b] = arr = na;
                q->bcap[b] = nc;
            }
            arr[q->blen[b]++] = all[i];
            q->count += PyList_GET_SIZE(all[i].list);
        } else {
            PyObject *lst = all[i].list;
            Py_ssize_t m = PyList_GET_SIZE(lst);
            for (Py_ssize_t j = 0; j < m; j++) {
                PyObject *e = PyList_GET_ITEM(lst, j);
                Py_INCREF(e);
                if (mh_push(&q->ov, all[i].t, all[i].prio, ++q->oseq, e) < 0) {
                    Py_DECREF(lst);
                    for (Py_ssize_t jj = i + 1; jj < nb; jj++)
                        Py_XDECREF(all[jj].list);
                    PyMem_Free(all);
                    return -1;
                }
            }
            Py_DECREF(lst);
        }
    }
    PyMem_Free(all);
    q->resizes++;
    if (q->ov.len) return calq_migrate(q);
    return 0;
}

/* Pop the earliest band from a MiniHeap as the active cohort. */
static int calq_pop_heap_band(CalQ *q, MiniHeap *h)
{
    HeapEnt e = mh_pop(h);
    PyObject *list = PyList_New(0);
    if (!list) {
        Py_DECREF(e.ev);
        return -1;
    }
    int rc = PyList_Append(list, e.ev);
    Py_DECREF(e.ev);
    if (rc < 0) {
        Py_DECREF(list);
        return -1;
    }
    while (h->len && h->e[0].t == e.t && h->e[0].prio == e.prio) {
        HeapEnt e2 = mh_pop(h);
        rc = PyList_Append(list, e2.ev);
        Py_DECREF(e2.ev);
        if (rc < 0) {
            Py_DECREF(list);
            return -1;
        }
    }
    q->active_t = e.t;
    q->active_prio = e.prio;
    Py_XSETREF(q->active_list, list);
    q->band_t = -1.0;
    q->band_list = NULL;
    return 1;
}

/* 1 = cohort ready (active_* filled), 0 = empty, -1 = error */
static int calq_pop_cohort(CalQ *q)
{
    if (q->past.len) return calq_pop_heap_band(q, &q->past);
    if (!q->count) {
        if (!q->ov.len) {
            q->active_prio = IDLE_PRIO;
            Py_CLEAR(q->active_list);
            return 0;
        }
        double t0 = q->ov.e[0].t;
        long long k = t0 < FAR_T ? slot_of(q, t0) : q->far_k;
        q->cur_k = k;
        q->far_k = k + q->n;
        if (calq_migrate(q) < 0) return -1;
        if (!q->count) return calq_pop_heap_band(q, &q->ov);
    }
    long long k = q->cur_k;
    long mask = q->mask;
    int bi;
    for (;;) {
        bi = (int)(k & mask);
        if (q->blen[bi]) break;
        k++;
    }
    q->cur_k = k;
    long long far_k = k + q->n;
    if (far_k > q->far_k) {
        q->far_k = far_k;
        if (q->ov.len && calq_migrate(q) < 0) return -1;
    }
    Band *arr = q->buckets[bi];
    int len = q->blen[bi], mi = 0;
    for (int i = 1; i < len; i++)
        if (arr[i].t < arr[mi].t ||
            (arr[i].t == arr[mi].t && arr[i].prio < arr[mi].prio))
            mi = i;
    Band band = arr[mi];
    arr[mi] = arr[len - 1];
    q->blen[bi] = len - 1;
    q->count -= PyList_GET_SIZE(band.list);
    q->active_t = band.t;
    q->active_prio = band.prio;
    Py_XSETREF(q->active_list, band.list); /* ownership moves */
    q->band_t = -1.0;
    q->band_list = NULL;
    q->pops++;
    if (band.t > q->last_t) {
        q->gap_ewma += (band.t - q->last_t - q->gap_ewma) * 0.125;
        q->last_t = band.t;
    }
    if (q->pops >= RESIZE_CHECK) {
        q->pops = 0;
        if (calq_maybe_resize(q) < 0) return -1;
    }
    return 1;
}

static double calq_peek(CalQ *q)
{
    if (q->past.len) return q->past.e[0].t;
    if (q->count) {
        long long k = q->cur_k;
        for (;;) {
            int bi = (int)(k & q->mask);
            int len = q->blen[bi];
            if (len) {
                Band *arr = q->buckets[bi];
                double best = arr[0].t;
                for (int i = 1; i < len; i++)
                    if (arr[i].t < best) best = arr[i].t;
                return best;
            }
            k++;
        }
    }
    if (q->ov.len) return q->ov.e[0].t;
    return Py_HUGE_VAL;
}

/* ------------------------------------------------ CalQ python methods */

static PyObject *CalQ_push_py(CalQ *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push(t, priority, event)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred()) return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred()) return NULL;
    if (calq_push(q, t, prio, args[2]) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *CalQ_pop_cohort_py(CalQ *q, PyObject *noarg)
{
    int rc = calq_pop_cohort(q);
    if (rc < 0) return NULL;
    if (rc == 0) Py_RETURN_NONE;
    return Py_BuildValue("(dlO)", q->active_t, q->active_prio, q->active_list);
}

/* Early exit mid-cohort: restore the non-None remainder of `events`
 * and forget the active cohort. */
static int calq_requeue_front(CalQ *q, double t, long prio, PyObject *events)
{
    int rc = calq_requeue_band(q, t, prio, events);
    q->active_prio = IDLE_PRIO;
    q->band_t = -1.0;
    q->band_list = NULL;
    Py_CLEAR(q->active_list);
    return rc;
}

static PyObject *CalQ_requeue_front_py(CalQ *q, PyObject *const *args,
                                       Py_ssize_t nargs)
{
    if (nargs != 3 || !PyList_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "requeue_front(t, priority, events)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred()) return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred()) return NULL;
    if (calq_requeue_front(q, t, prio, args[2]) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *CalQ_peek_py(CalQ *q, PyObject *noarg)
{
    return PyFloat_FromDouble(calq_peek(q));
}

static PyObject *CalQ_info(CalQ *q, PyObject *noarg)
{
    return Py_BuildValue(
        "{s:l,s:d,s:n,s:n,s:n,s:l}", "n", q->n, "width", q->width, "count",
        q->count, "overflow", q->ov.len, "past", q->past.len, "resizes",
        q->resizes);
}

static Py_ssize_t CalQ_len(CalQ *q)
{
    return q->count + q->ov.len + q->past.len;
}

static PyMethodDef CalQ_methods[] = {
    {"push", (PyCFunction)CalQ_push_py, METH_FASTCALL,
     "push(t, priority, event)"},
    {"pop_cohort", (PyCFunction)CalQ_pop_cohort_py, METH_NOARGS,
     "pop the earliest (t, priority) band -> (t, priority, events) or None"},
    {"requeue_front", (PyCFunction)CalQ_requeue_front_py, METH_FASTCALL,
     "restore the non-None remainder of a cohort list"},
    {"peek", (PyCFunction)CalQ_peek_py, METH_NOARGS,
     "time of the next event, or inf"},
    {"info", (PyCFunction)CalQ_info, METH_NOARGS,
     "sizing/occupancy counters (dict)"},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods CalQ_as_seq = {.sq_length = (lenfunc)CalQ_len};

static PyMemberDef CalQ_members[] = {
    /* Python drivers (sanitized runs, step()) sync this clock mirror so
     * the C timeout fast path always sees the current sim._now. */
    {"now", T_DOUBLE, offsetof(CalQ, now), 0, "mirror of sim._now"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CalQ_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.CalQ",
    .tp_basicsize = sizeof(CalQ),
    .tp_dealloc = (destructor)CalQ_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)CalQ_traverse,
    .tp_clear = (inquiry)CalQ_clear,
    .tp_methods = CalQ_methods,
    .tp_members = CalQ_members,
    .tp_as_sequence = &CalQ_as_seq,
    .tp_new = CalQ_new,
    .tp_doc = "Calendar-queue event schedule (C accelerated)",
};

/* ------------------------------------------------------------ TimeoutFn */

typedef struct {
    PyObject_HEAD
    PyObject *sim;  /* owned */
    CalQ *q;        /* owned */
    PyObject *pool; /* owned list, or NULL when pooling is disabled */
    int hop;        /* 1: sim.urgent_hop() -- no arguments, zero delay, URGENT */
} TimeoutFn;

static PyObject *float_zero = NULL; /* 0.0, the delay of every hop */

static int TimeoutFn_traverse(TimeoutFn *f, visitproc visit, void *arg)
{
    Py_VISIT(f->sim);
    Py_VISIT((PyObject *)f->q);
    Py_VISIT(f->pool);
    return 0;
}

static int TimeoutFn_clear(TimeoutFn *f)
{
    Py_CLEAR(f->sim);
    Py_CLEAR(f->q);
    Py_CLEAR(f->pool);
    return 0;
}

static void TimeoutFn_dealloc(TimeoutFn *f)
{
    PyObject_GC_UnTrack(f);
    TimeoutFn_clear(f);
    Py_TYPE(f)->tp_free((PyObject *)f);
}

/* A Timeout of `sim` with every Event slot set as Timeout.__init__ sets
 * it (not yet queued; callbacks/delay/_value are set by the caller). */
static PyObject *new_timeout(PyObject *sim)
{
    PyTypeObject *tp = (PyTypeObject *)TimeoutType;
    PyObject *ev = tp->tp_alloc(tp, 0);
    if (!ev) return NULL;
    SLOT(ev, off_sim) = Py_NewRef(sim);
    SLOT(ev, off_ok) = Py_NewRef(Py_True);
    SLOT(ev, off_triggered) = Py_NewRef(Py_True);
    SLOT(ev, off_defused) = Py_NewRef(Py_False);
    return ev;
}

static PyObject *TimeoutFn_call(TimeoutFn *f, PyObject *args, PyObject *kw)
{
    Py_ssize_t na = PyTuple_GET_SIZE(args);
    PyObject *delay_ob;
    PyObject *value = Py_None;
    long prio = 1; /* NORMAL */
    if (f->hop) {
        if (na != 0 || (kw != NULL && PyDict_GET_SIZE(kw) != 0)) {
            PyErr_SetString(PyExc_TypeError, "urgent_hop() takes no arguments");
            return NULL;
        }
        delay_ob = float_zero;
        prio = 0; /* URGENT */
    } else if (kw != NULL && PyDict_GET_SIZE(kw) != 0) {
        static char *kwlist[] = {"delay", "value", NULL};
        if (!PyArg_ParseTupleAndKeywords(args, kw, "O|O", kwlist, &delay_ob,
                                         &value))
            return NULL;
    } else if (na == 1) {
        delay_ob = PyTuple_GET_ITEM(args, 0);
    } else if (na == 2) {
        delay_ob = PyTuple_GET_ITEM(args, 0);
        value = PyTuple_GET_ITEM(args, 1);
    } else {
        PyErr_SetString(PyExc_TypeError, "timeout(delay, value=None)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(delay_ob);
    if (delay == -1.0 && PyErr_Occurred()) return NULL;
    if (delay < 0.0) {
        PyErr_Format(SimError, "negative timeout delay %R", delay_ob);
        return NULL;
    }
    CalQ *q = f->q;
    PyObject *pool = f->pool;
    Py_ssize_t psz;
    PyObject *ev;
    if (pool == NULL || (psz = PyList_GET_SIZE(pool)) == 0) {
        ev = new_timeout(f->sim);
        if (!ev) return NULL;
    } else {
        ev = PyList_GET_ITEM(pool, psz - 1);
        Py_INCREF(ev);
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
    }
    /* mirror of Simulator.timeout's pooled reset: a pooled Timeout keeps
     * its invariant flags (_triggered, _ok, _defused) */
    PyObject *cbs = PyList_New(0);
    if (!cbs) {
        Py_DECREF(ev);
        return NULL;
    }
    slot_set(ev, off_callbacks, cbs);
    Py_INCREF(delay_ob);
    slot_set(ev, off_delay, delay_ob);
    Py_INCREF(value);
    slot_set(ev, off_value, value);
    Py_INCREF(Py_False);
    slot_set(ev, off_processed, Py_False);
    if (calq_push(q, q->now + delay, prio, ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

static PyTypeObject TimeoutFn_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.TimeoutFn",
    .tp_basicsize = sizeof(TimeoutFn),
    .tp_dealloc = (destructor)TimeoutFn_dealloc,
    .tp_call = (ternaryfunc)TimeoutFn_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)TimeoutFn_traverse,
    .tp_clear = (inquiry)TimeoutFn_clear,
};

/* --------------------------------------------------------------- setup */

static Py_ssize_t member_offset(PyObject *type, const char *name)
{
    PyObject *d = PyObject_GetAttrString(type, name);
    if (!d) return -1;
    if (!PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
        Py_DECREF(d);
        PyErr_Format(PyExc_TypeError, "%s is not a slot member", name);
        return -1;
    }
    Py_ssize_t off = ((PyMemberDescrObject *)d)->d_member->offset;
    Py_DECREF(d);
    return off;
}

static PyObject *mod_setup(PyObject *self, PyObject *args)
{
    PyObject *event_t, *timeout_t, *process_t, *sim_error;
    if (!PyArg_ParseTuple(args, "OOOO", &event_t, &timeout_t, &process_t,
                          &sim_error))
        return NULL;
    if (!PyType_Check(event_t)) {
        PyErr_SetString(PyExc_TypeError, "setup() needs the Event type");
        return NULL;
    }
    Py_XSETREF(EventType, Py_NewRef(event_t));
    Py_XSETREF(TimeoutType, Py_NewRef(timeout_t));
    Py_XSETREF(ProcessType, Py_NewRef(process_t));
    Py_XSETREF(SimError, Py_NewRef(sim_error));
    off_value = member_offset(event_t, "_value");
    off_processed = member_offset(event_t, "_processed");
    off_callbacks = member_offset(event_t, "callbacks");
    off_sim = member_offset(event_t, "sim");
    off_ok = member_offset(event_t, "_ok");
    off_defused = member_offset(event_t, "_defused");
    off_triggered = member_offset(event_t, "_triggered");
    off_delay = member_offset(timeout_t, "delay");
    off_send = member_offset(process_t, "_send");
    off_throw = member_offset(process_t, "_throw");
    off_gen = member_offset(process_t, "gen");
    off_target = member_offset(process_t, "_target");
    off_resume_cb = member_offset(process_t, "_resume_cb");
    if (off_value < 0 || off_processed < 0 || off_callbacks < 0 ||
        off_sim < 0 || off_ok < 0 || off_defused < 0 || off_triggered < 0 ||
        off_delay < 0 || off_send < 0 || off_throw < 0 || off_gen < 0 ||
        off_target < 0 || off_resume_cb < 0)
        return NULL;
    /* class attribute access yields the plain functions, matched by
     * identity against bound-method callbacks and type lookups */
    PyObject *rf = PyObject_GetAttrString(process_t, "_resume");
    if (!rf) return NULL;
    Py_XSETREF(resume_func, rf);
    PyObject *pf = PyObject_GetAttrString(event_t, "_process");
    if (!pf) return NULL;
    Py_XSETREF(process_func, pf);
    Py_XSETREF(long_urgent, PyLong_FromLong(0));
    str_process = PyUnicode_InternFromString("_process");
    str_resume_tail = PyUnicode_InternFromString("_resume_tail");
    str_succeed = PyUnicode_InternFromString("succeed");
    str_fail = PyUnicode_InternFromString("fail");
    str_now = PyUnicode_InternFromString("_now");
    str_active = PyUnicode_InternFromString("_active");
    str_append = PyUnicode_InternFromString("append");
    str_popleft = PyUnicode_InternFromString("popleft");
    str_remove = PyUnicode_InternFromString("remove");
    str_watchdog = PyUnicode_InternFromString("_watchdog");
    Py_XSETREF(float_zero, PyFloat_FromDouble(0.0));
    if (!long_urgent || !str_process || !str_resume_tail || !str_succeed ||
        !str_fail || !str_now || !str_active || !str_append || !str_popleft ||
        !str_remove || !str_watchdog || !float_zero)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *mod_make_timeout(PyObject *self, PyObject *args)
{
    PyObject *sim, *q, *pool;
    int hop = 0;
    if (!PyArg_ParseTuple(args, "OOO|p", &sim, &q, &pool, &hop)) return NULL;
    if (!PyObject_TypeCheck(q, &CalQ_Type)) {
        PyErr_SetString(PyExc_TypeError, "make_timeout() needs a CalQ");
        return NULL;
    }
    TimeoutFn *f = PyObject_GC_New(TimeoutFn, &TimeoutFn_Type);
    if (!f) return NULL;
    f->sim = Py_NewRef(sim);
    f->q = (CalQ *)Py_NewRef(q);
    f->pool = pool == Py_None ? NULL : Py_NewRef(pool);
    f->hop = hop;
    PyObject_GC_Track(f);
    return (PyObject *)f;
}

/* -------------------------------------------------------------- GrantFn */

/* request() / release(req) of one Resource(capacity=1): the bodies of
 * Resource.request and Resource.release with the sanitizer and watchdog
 * hooks absent.  Installed on the instance only when the simulator does
 * not sanitize; a watchdog attached later sends every call back to the
 * Python methods.  The `users` list and `queue` deque are the Python
 * object's own, so both paths see one state. */
typedef struct {
    PyObject_HEAD
    PyObject *sim;      /* owned */
    CalQ *q;            /* owned */
    PyObject *res;      /* owned: the Resource */
    PyObject *users;    /* owned: res.users */
    PyObject *queue;    /* owned: res.queue */
    PyObject *req_type; /* owned: _Request */
    PyObject *py_fn;    /* owned: Resource.request / Resource.release */
    Py_ssize_t off_resource;
    int release;
} GrantFn;

static int GrantFn_traverse(GrantFn *g, visitproc visit, void *arg)
{
    Py_VISIT(g->sim);
    Py_VISIT((PyObject *)g->q);
    Py_VISIT(g->res);
    Py_VISIT(g->users);
    Py_VISIT(g->queue);
    Py_VISIT(g->req_type);
    Py_VISIT(g->py_fn);
    return 0;
}

static int GrantFn_clear(GrantFn *g)
{
    Py_CLEAR(g->sim);
    Py_CLEAR(g->q);
    Py_CLEAR(g->res);
    Py_CLEAR(g->users);
    Py_CLEAR(g->queue);
    Py_CLEAR(g->req_type);
    Py_CLEAR(g->py_fn);
    return 0;
}

static void GrantFn_dealloc(GrantFn *g)
{
    PyObject_GC_UnTrack(g);
    GrantFn_clear(g);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

/* req.succeed(req) for a granted request: NORMAL at the current time. */
static int grant_succeed(GrantFn *g, PyObject *req)
{
    if (SLOT(req, off_triggered) == Py_True) {
        /* raises SimulationError("... already triggered") */
        PyObject *r = PyObject_CallMethodOneArg(req, str_succeed, req);
        Py_XDECREF(r);
        return r ? 0 : -1;
    }
    slot_set(req, off_triggered, Py_NewRef(Py_True));
    slot_set(req, off_ok, Py_NewRef(Py_True));
    slot_set(req, off_value, Py_NewRef(req));
    return calq_push(g->q, g->q->now, 1 /* NORMAL */, req);
}

static PyObject *grant_request(GrantFn *g)
{
    PyTypeObject *tp = (PyTypeObject *)g->req_type;
    PyObject *req = tp->tp_alloc(tp, 0);
    if (!req) return NULL;
    /* _Request.__init__, slot by slot */
    SLOT(req, off_sim) = Py_NewRef(g->sim);
    if (!(SLOT(req, off_callbacks) = PyList_New(0))) {
        Py_DECREF(req);
        return NULL;
    }
    SLOT(req, off_value) = Py_NewRef(Py_None);
    SLOT(req, off_ok) = Py_NewRef(Py_True);
    SLOT(req, off_triggered) = Py_NewRef(Py_False);
    SLOT(req, off_processed) = Py_NewRef(Py_False);
    SLOT(req, off_defused) = Py_NewRef(Py_False);
    SLOT(req, g->off_resource) = Py_NewRef(g->res);
    int rc;
    if (PyList_GET_SIZE(g->users) < 1) {
        rc = PyList_Append(g->users, req);
        if (rc == 0) {
            /* req.succeed(req), inlined: a fresh request is untriggered */
            slot_set(req, off_triggered, Py_NewRef(Py_True));
            slot_set(req, off_value, Py_NewRef(req));
            rc = calq_push(g->q, g->q->now, 1 /* NORMAL */, req);
        }
    } else {
        PyObject *r = PyObject_CallMethodOneArg(g->queue, str_append, req);
        rc = r ? 0 : -1;
        Py_XDECREF(r);
    }
    if (rc < 0) {
        Py_DECREF(req);
        return NULL;
    }
    return req;
}

static PyObject *grant_release(GrantFn *g, PyObject *req)
{
    PyObject *users = g->users;
    if (PyList_GET_SIZE(users) == 1 && PyList_GET_ITEM(users, 0) == req) {
        if (PyList_SetSlice(users, 0, 1, NULL) < 0) return NULL;
    } else {
        /* Releasing a queued (never-granted) request cancels it. */
        PyObject *r = PyObject_CallMethodOneArg(g->queue, str_remove, req);
        if (r) {
            Py_DECREF(r);
            Py_RETURN_NONE;
        }
        if (!PyErr_ExceptionMatches(PyExc_ValueError)) return NULL;
        PyErr_Clear();
        PyErr_SetString(SimError, "release() of unknown request");
        return NULL;
    }
    for (;;) {
        Py_ssize_t nq = PyObject_Size(g->queue);
        if (nq < 0) return NULL;
        if (nq == 0 || PyList_GET_SIZE(users) >= 1) break;
        PyObject *nxt = PyObject_CallMethodNoArgs(g->queue, str_popleft);
        if (!nxt) return NULL;
        int rc = PyList_Append(users, nxt);
        if (rc == 0) rc = grant_succeed(g, nxt);
        Py_DECREF(nxt);
        if (rc < 0) return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *GrantFn_call(GrantFn *g, PyObject *args, PyObject *kw)
{
    Py_ssize_t na = PyTuple_GET_SIZE(args);
    if ((kw != NULL && PyDict_GET_SIZE(kw) != 0) || na != g->release) {
        PyErr_SetString(PyExc_TypeError, g->release ? "release(request)"
                                                    : "request() takes no arguments");
        return NULL;
    }
    PyObject *wd = PyObject_GetAttr(g->sim, str_watchdog);
    if (!wd) return NULL;
    Py_DECREF(wd);
    if (wd != Py_None) {
        /* a watchdog tracks every request: take the Python method */
        PyObject *argv[2] = {g->res, na ? PyTuple_GET_ITEM(args, 0) : NULL};
        return PyObject_Vectorcall(g->py_fn, argv, 1 + na, NULL);
    }
    return g->release ? grant_release(g, PyTuple_GET_ITEM(args, 0))
                      : grant_request(g);
}

static PyTypeObject GrantFn_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.GrantFn",
    .tp_basicsize = sizeof(GrantFn),
    .tp_dealloc = (destructor)GrantFn_dealloc,
    .tp_call = (ternaryfunc)GrantFn_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)GrantFn_traverse,
    .tp_clear = (inquiry)GrantFn_clear,
};

/* make_grant(resource, calq, request_type, python_method, release) */
static PyObject *mod_make_grant(PyObject *self, PyObject *args)
{
    PyObject *res, *q, *req_type, *py_fn;
    int release;
    if (!PyArg_ParseTuple(args, "OO!OOp", &res, &CalQ_Type, &q, &req_type,
                          &py_fn, &release))
        return NULL;
    if (!PyType_Check(req_type) ||
        !PyType_IsSubtype((PyTypeObject *)req_type, (PyTypeObject *)EventType)) {
        PyErr_SetString(PyExc_TypeError, "make_grant() needs an Event subclass");
        return NULL;
    }
    Py_ssize_t off_resource = member_offset(req_type, "resource");
    if (off_resource < 0) return NULL;
    PyObject *sim = PyObject_GetAttrString(res, "sim");
    PyObject *users = sim ? PyObject_GetAttrString(res, "users") : NULL;
    PyObject *queue = users ? PyObject_GetAttrString(res, "queue") : NULL;
    if (!queue || !PyList_CheckExact(users)) {
        if (queue) PyErr_SetString(PyExc_TypeError, "resource.users must be a list");
        Py_XDECREF(sim);
        Py_XDECREF(users);
        Py_XDECREF(queue);
        return NULL;
    }
    GrantFn *g = PyObject_GC_New(GrantFn, &GrantFn_Type);
    if (!g) {
        Py_DECREF(sim);
        Py_DECREF(users);
        Py_DECREF(queue);
        return NULL;
    }
    g->sim = sim;
    g->q = (CalQ *)Py_NewRef(q);
    g->res = Py_NewRef(res);
    g->users = users;
    g->queue = queue;
    g->req_type = Py_NewRef(req_type);
    g->py_fn = Py_NewRef(py_fn);
    g->off_resource = off_resource;
    g->release = release;
    PyObject_GC_Track(g);
    return (PyObject *)g;
}

/* --------------------------------------------------------------- drivers */

/* The kernel's flag slots (_ok, _triggered, _processed, _defused) only
 * ever hold True or False, so `if flag:` is a pointer compare here. */

/* Process.succeed(value, priority=URGENT) for a process of the driven
 * simulator: its queue is `q` and its clock is q->now.  0 ok, -1 error. */
static int proc_succeed(CalQ *q, PyObject *w, PyObject *value /* borrowed */)
{
    if (SLOT(w, off_triggered) == Py_True) {
        /* raises SimulationError("... already triggered") */
        PyObject *r =
            PyObject_CallMethodObjArgs(w, str_succeed, value, long_urgent, NULL);
        Py_XDECREF(r);
        return r ? 0 : -1;
    }
    slot_set(w, off_triggered, Py_NewRef(Py_True));
    slot_set(w, off_ok, Py_NewRef(Py_True));
    slot_set(w, off_value, Py_NewRef(value));
    return calq_push(q, q->now, 0 /* URGENT */, w);
}

/* Process._resume(event) for a process `w` of the driven simulator,
 * including the live-event branch of _resume_tail.  0 ok, -1 error. */
static int resume_proc(PyObject *sim, CalQ *q, PyObject *w, PyObject *event)
{
    if (PyObject_SetAttr(sim, str_active, w) < 0) return -1;
    slot_set(w, off_target, Py_NewRef(Py_None));
    PyObject *value = Py_NewRef(SLOT(event, off_value));
    PyObject *result = NULL;
    PySendResult st;
    if (SLOT(event, off_ok) == Py_True) {
        PyObject *gen = SLOT(w, off_gen);
        if (PyGen_CheckExact(gen)) {
            /* gen.send(value) without the StopIteration round trip */
            st = PyIter_Send(gen, value, &result);
        } else {
            result = PyObject_CallOneArg(SLOT(w, off_send), value);
            st = result ? PYGEN_NEXT : PYGEN_ERROR;
        }
    } else {
        slot_set(event, off_defused, Py_NewRef(Py_True));
        result = PyObject_CallOneArg(SLOT(w, off_throw), value);
        st = result ? PYGEN_NEXT : PYGEN_ERROR;
    }
    /* Take the generator's exception *before* resetting _active: the
     * attribute store may run a type lookup, and a type-cache miss
     * clears any pending exception. */
    PyObject *etype = NULL, *evalue = NULL, *etb = NULL;
    if (st == PYGEN_ERROR) PyErr_Fetch(&etype, &evalue, &etb);
    Py_DECREF(value);
    if (PyObject_SetAttr(sim, str_active, Py_None) < 0) {
        Py_XDECREF(result);
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return -1;
    }
    int rc;
    if (st == PYGEN_RETURN) {
        rc = proc_succeed(q, w, result);
        Py_DECREF(result);
        return rc;
    }
    if (st == PYGEN_ERROR) {
        PyErr_NormalizeException(&etype, &evalue, &etb);
        if (PyErr_GivenExceptionMatches(etype, PyExc_StopIteration)) {
            PyObject *retval = PyObject_GetAttrString(evalue, "value");
            rc = retval ? proc_succeed(q, w, retval) : -1;
            Py_XDECREF(retval);
        } else {
            /* mirror `except BaseException: self.fail(exc, URGENT)` */
            if (etb != NULL) PyException_SetTraceback(evalue, etb);
            PyObject *r = PyObject_CallMethodObjArgs(w, str_fail, evalue,
                                                     long_urgent, NULL);
            rc = r ? 0 : -1;
            Py_XDECREF(r);
        }
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return rc;
    }
    /* yielded a pending event of this simulator: wait on it */
    PyObject *rcbs;
    if ((Py_TYPE(result) == (PyTypeObject *)TimeoutType ||
         PyObject_TypeCheck(result, (PyTypeObject *)EventType)) &&
        SLOT(result, off_sim) == sim &&
        (rcbs = SLOT(result, off_callbacks)) != NULL && PyList_CheckExact(rcbs)) {
        if (PyList_Append(rcbs, SLOT(w, off_resume_cb)) < 0) {
            Py_DECREF(result);
            return -1;
        }
        if (SLOT(result, off_ok) != Py_True)
            slot_set(result, off_defused, Py_NewRef(Py_True));
        slot_set(w, off_target, result); /* steals the reference */
        return 0;
    }
    PyObject *r = PyObject_CallMethodOneArg(w, str_resume_tail, result);
    Py_DECREF(result);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* Dispatch one event: Event._process (Simulator._drive's inlined copy
 * for Timeouts) plus the Timeout pool step.  Every bound Process._resume
 * callback of this simulator runs through resume_proc; any other
 * callback is called.  0 ok, -1 error. */
static int dispatch_one(PyObject *sim, CalQ *q, PyObject *pool,
                        PyObject *event /* borrowed */)
{
    int is_timeout = Py_TYPE(event) == (PyTypeObject *)TimeoutType;
    PyObject *cbs = SLOT(event, off_callbacks);
    if (cbs == NULL || !PyList_CheckExact(cbs) ||
        (!is_timeout && _PyType_Lookup(Py_TYPE(event), str_process) != process_func)) {
        /* processed twice, or a subclass's own _process */
        PyObject *r = PyObject_CallMethodNoArgs(event, str_process);
        if (!r) return -1;
        Py_DECREF(r);
        goto done;
    }
    SLOT(event, off_callbacks) = Py_NewRef(Py_None); /* we own `cbs` now */
    slot_set(event, off_processed, Py_NewRef(Py_True));
    int rc = 0;
    /* size re-read every iteration, as `for cb in callbacks` does */
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(cbs, i));
        PyObject *w;
        if (PyMethod_Check(cb) && PyMethod_GET_FUNCTION(cb) == resume_func &&
            PyObject_TypeCheck((w = PyMethod_GET_SELF(cb)),
                               (PyTypeObject *)ProcessType) &&
            SLOT(w, off_sim) == sim) {
            rc = resume_proc(sim, q, w, event);
        } else {
            PyObject *r = PyObject_CallOneArg(cb, event);
            rc = r ? 0 : -1;
            Py_XDECREF(r);
        }
        Py_DECREF(cb);
    }
    Py_DECREF(cbs);
    if (rc < 0) return -1;
    if (!is_timeout && SLOT(event, off_ok) != Py_True &&
        SLOT(event, off_defused) != Py_True) {
        /* an un-waited-for failure: `raise self._value` */
        PyObject *exc = SLOT(event, off_value);
        if (PyExceptionInstance_Check(exc))
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else
            PyErr_SetString(PyExc_TypeError,
                            "exceptions must derive from BaseException");
        return -1;
    }
done:
    if (is_timeout && Py_REFCNT(event) == 1 && PyList_GET_SIZE(pool) < POOL_MAX)
        return PyList_Append(pool, event);
    return 0;
}

/* drive(sim, calq, pool, limit, target, budget) -> (n, drained): the
 * loop of Simulator._drive.  Dispatches cohorts in order and stops when
 * the schedule drains (drained=True), when the next cohort lies beyond
 * `limit`, once `target` (None for no target) has been processed, or
 * once `budget` events have run (0 = no budget).  `n` counts the
 * dispatched events. */
static PyObject *mod_drive(PyObject *self, PyObject *args)
{
    PyObject *sim, *qo, *pool, *target;
    double limit;
    Py_ssize_t budget;
    if (!PyArg_ParseTuple(args, "OO!O!dOn", &sim, &CalQ_Type, &qo,
                          &PyList_Type, &pool, &limit, &target, &budget))
        return NULL;
    CalQ *q = (CalQ *)qo;
    if (target == Py_None) target = NULL;
    Py_ssize_t n = 0;
    int drained = 0;
    while (target == NULL || SLOT(target, off_processed) != Py_True) {
        int rc = calq_pop_cohort(q);
        if (rc < 0) return NULL;
        if (rc == 0) {
            drained = 1;
            break;
        }
        double t = q->active_t;
        long prio = q->active_prio;
        PyObject *events = q->active_list;
        if (t > limit) {
            if (calq_requeue_front(q, t, prio, events) < 0) return NULL;
            break;
        }
        q->now = t;
        PyObject *tf = PyFloat_FromDouble(t);
        if (!tf) return NULL;
        int sa = PyObject_SetAttr(sim, str_now, tf);
        Py_DECREF(tf);
        if (sa < 0) return NULL;
        Py_INCREF(events); /* hold across dispatch (preempt may drop q's ref) */
        Py_ssize_t i = 0;
        int stop = 0;
        /* size re-read every iteration: a preempting push clears the list */
        while (!stop && i < PyList_GET_SIZE(events)) {
            PyObject *event = PyList_GET_ITEM(events, i);
            Py_INCREF(event);
            Py_INCREF(Py_None);
            PyList_SetItem(events, i, Py_None);
            i++;
            if (dispatch_one(sim, q, pool, event) < 0) {
                Py_DECREF(event);
                /* keep the queue consistent for a caller that catches */
                PyObject *etype, *evalue, *etb;
                PyErr_Fetch(&etype, &evalue, &etb);
                calq_requeue_front(q, t, prio, events);
                PyErr_Restore(etype, evalue, etb);
                Py_DECREF(events);
                return NULL;
            }
            Py_DECREF(event);
            n++;
            stop = (budget && n >= budget) ||
                   (target != NULL && SLOT(target, off_processed) == Py_True);
        }
        if (stop && calq_requeue_front(q, t, prio, events) < 0) {
            Py_DECREF(events);
            return NULL;
        }
        Py_DECREF(events);
        if (stop) break;
    }
    return Py_BuildValue("(nO)", n, drained ? Py_True : Py_False);
}

static PyMethodDef mod_methods[] = {
    {"setup", mod_setup, METH_VARARGS,
     "setup(Event, Timeout, Process, SimulationError): resolve slot offsets"},
    {"make_timeout", mod_make_timeout, METH_VARARGS,
     "make_timeout(sim, calq, pool_or_None, hop=False) -> fast sim.timeout "
     "(or, with hop, sim.urgent_hop) callable"},
    {"make_grant", mod_make_grant, METH_VARARGS,
     "make_grant(resource, calq, Request, python_method, release) -> fast "
     "request() or release(req) of a capacity-1 Resource"},
    {"drive", mod_drive, METH_VARARGS,
     "drive(sim, calq, pool, limit, target_or_None, budget) -> (n, drained)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cq_module = {
    PyModuleDef_HEAD_INIT, "repro.sim._cq",
    "C accelerator for the repro.sim event kernel", -1, mod_methods,
};

PyMODINIT_FUNC PyInit__cq(void)
{
    PyObject *m = PyModule_Create(&cq_module);
    if (!m) return NULL;
    if (PyType_Ready(&CalQ_Type) < 0) return NULL;
    if (PyType_Ready(&TimeoutFn_Type) < 0) return NULL;
    if (PyType_Ready(&GrantFn_Type) < 0) return NULL;
    Py_INCREF(&CalQ_Type);
    if (PyModule_AddObject(m, "CalQ", (PyObject *)&CalQ_Type) < 0) return NULL;
    if (PyModule_AddIntConstant(m, "API_VERSION", 4) < 0) return NULL;
    return m;
}
